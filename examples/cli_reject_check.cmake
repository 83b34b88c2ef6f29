# Runs CLI (ageo_audit_cli, or any command) with ARGS (a ;-list) and
# passes only when it exits with code 2 and its stderr matches the
# regular expression EXPECT.
#   cmake -DCLI=<path> -DARGS=<a;b> -DEXPECT=<regex> -P cli_reject_check.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
