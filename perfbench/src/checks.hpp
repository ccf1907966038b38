// Output checks behind `failed` and fail_share, as pure functions so the
// benchmark's tests can feed each one a failing input.
#pragma once

#include <string>

#include "fleet/simulation.hpp"

namespace perfbench {

/// Routes of the daemon-mixed request mix.
enum class Route {
  kLifetimes,     ///< GET /v1/lifetimes
  kModels,        ///< GET /v1/models
  kReuse,         ///< GET /v1/decisions/reuse
  kPortfolio,     ///< GET /v1/portfolio (warm)
  kBagsList,      ///< GET /v1/bags?limit=
  kBagGet,        ///< GET /v1/bags/{id}
  kObservations,  ///< POST /v1/observations
  kBagsPost,      ///< POST /v1/bags
};
inline constexpr int kRouteCount = 8;
const char* route_name(Route route);

/// Byte equality; on mismatch `why` names the first differing offset.
bool same_bytes(const std::string& expected, const std::string& got, std::string* why);

/// Every submitted task completed (and there were some).
bool fleet_report_complete(const preempt::fleet::FleetReport& report, std::string* why);

/// Expected status and JSON shape of one daemon response.
bool response_ok(Route route, int status, const std::string& body, std::string* why);

/// A GET /v1/bags/{id} body of a finished bag whose "report" block equals
/// `expected_report` (the in-process run_service rendered the same way).
bool bag_report_matches(const std::string& body, const std::string& expected_report,
                        std::string* why);

}  // namespace perfbench
