# Smoke-run one bench binary and fail the build loudly when it exits
# non-zero OR when a required output row is missing. The second check is
# the point: a google-benchmark binary whose rows were silently dropped
# (a bad --benchmark_filter, a registration that never ran) still exits
# 0, and a plain POST_BUILD command would let it sail through CI. The
# same check pins figures: an expected substring can be a whole result
# line, so a changed number fails the smoke run too.
#
# Usage:
#   cmake -DBIN=<exe>
#         [-DARGS=<comma-separated argv tail>]
#         [-DRUN_ENV=<comma-separated K=V pairs>]
#         [-DEXPECT=<comma-separated required output substrings>]
#         -P smoke_run.cmake
#
# Comma separators keep the lists intact through add_custom_command's
# COMMAND quoting (semicolons would split into separate arguments).

if(NOT DEFINED BIN)
  message(FATAL_ERROR "smoke_run: BIN not set")
endif()

set(_cmd ${CMAKE_COMMAND} -E env)
if(DEFINED RUN_ENV AND NOT RUN_ENV STREQUAL "")
  string(REPLACE "," ";" _env "${RUN_ENV}")
  list(APPEND _cmd ${_env})
endif()
list(APPEND _cmd ${BIN})
if(DEFINED ARGS AND NOT ARGS STREQUAL "")
  string(REPLACE "," ";" _args "${ARGS}")
  list(APPEND _cmd ${_args})
endif()

execute_process(COMMAND ${_cmd}
  OUTPUT_VARIABLE _out
  ERROR_VARIABLE _err
  RESULT_VARIABLE _rc
  ECHO_OUTPUT_VARIABLE
  ECHO_ERROR_VARIABLE)

if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "smoke_run: ${BIN} exited with ${_rc}")
endif()

if(DEFINED EXPECT AND NOT EXPECT STREQUAL "")
  string(REPLACE "," ";" _rows "${EXPECT}")
  foreach(_row IN LISTS _rows)
    string(FIND "${_out}${_err}" "${_row}" _pos)
    if(_pos EQUAL -1)
      message(FATAL_ERROR
        "smoke_run: ${BIN} under-reported rows — expected '${_row}' in its "
        "output (a silently-skipped bench row must fail the smoke run)")
    endif()
  endforeach()
endif()
