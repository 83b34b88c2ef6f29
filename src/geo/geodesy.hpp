// Great-circle geodesy on a spherical Earth.
//
// A sphere of radius kEarthRadiusKm is accurate to ~0.5% versus the WGS-84
// ellipsoid, far below the noise floor of delay-based geolocation (the
// paper's own precision target is ~1000 km^2 regions).
#pragma once

#include <cmath>

#include "geo/latlon.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"

namespace ageo::geo {

/// Great-circle (surface) distance in km. Symmetric, non-negative,
/// satisfies the triangle inequality; max value ~ pi * R.
double distance_km(const LatLon& a, const LatLon& b) noexcept;

/// Central angle between two points, radians in [0, pi].
double central_angle_rad(const LatLon& a, const LatLon& b) noexcept;

/// Great-circle distance in km between two unit vectors:
/// kEarthRadiusKm * atan2(|a x b|, a . b). The one expression behind every
/// per-cell distance (Grid::distance_to_cell_km, the ring multiplies and
/// the scan plans' distance tables), so all of them agree bit for bit.
/// On to_vec3 outputs it equals distance_km bit for bit, which the network
/// simulator relies on when it reads vectors cached at host creation.
inline double arc_distance_km(const Vec3& a, const Vec3& b) noexcept {
  return kEarthRadiusKm * std::atan2(a.cross(b).norm(), a.dot(b));
}

/// Initial bearing from `from` towards `to`, degrees clockwise from north
/// in [0, 360). Undefined (returns 0) when the points coincide or are
/// antipodal.
double initial_bearing_deg(const LatLon& from, const LatLon& to) noexcept;

/// The point reached by travelling `distance_km` from `start` along
/// `bearing_deg` (degrees clockwise from north) on a great circle.
LatLon destination(const LatLon& start, double bearing_deg,
                   double distance_km) noexcept;

/// Midpoint of the great-circle arc between a and b.
LatLon midpoint(const LatLon& a, const LatLon& b) noexcept;

/// Spherical cap: all points within `radius_km` of `center`.
/// CBG's multilateration disks are caps.
struct Cap {
  LatLon center;
  double radius_km = 0.0;

  bool contains(const LatLon& p) const noexcept {
    return distance_km(center, p) <= radius_km;
  }
};

/// Spherical annulus: all points whose distance from `center` lies in
/// [inner_km, outer_km]. Octant's and the Hybrid's constraints are rings.
struct Ring {
  LatLon center;
  double inner_km = 0.0;
  double outer_km = 0.0;

  bool contains(const LatLon& p) const noexcept {
    double d = distance_km(center, p);
    return d >= inner_km && d <= outer_km;
  }
};

/// Geodesic distance on the WGS-84 ellipsoid (Vincenty's inverse
/// formula), km. More accurate than the spherical distance (~0.5% max
/// error) but ~10x slower; the library uses the sphere everywhere (well
/// below delay-geolocation's noise floor) and exposes this for accuracy
/// validation. Falls back to the spherical value for near-antipodal
/// pairs where Vincenty fails to converge.
double vincenty_distance_km(const LatLon& a, const LatLon& b) noexcept;

/// Area of a spherical cap, km^2 (2*pi*R^2*(1-cos(theta))).
double cap_area_km2(double radius_km) noexcept;

/// Surface area of the whole Earth model, km^2.
double earth_area_km2() noexcept;

}  // namespace ageo::geo
