#include "checks.hpp"

#include <initializer_list>

#include "common/json.hpp"

namespace perfbench {

namespace {

bool fail(std::string* why, const std::string& message) {
  if (why != nullptr) *why = message;
  return false;
}

bool has_keys(const preempt::JsonValue& v, std::initializer_list<const char*> keys,
              std::string* why) {
  if (!v.is_object()) return fail(why, "body is not a JSON object");
  for (const char* key : keys) {
    if (v.find(key) == nullptr) return fail(why, std::string("missing key '") + key + "'");
  }
  return true;
}

}  // namespace

const char* route_name(Route route) {
  switch (route) {
    case Route::kLifetimes: return "lifetimes";
    case Route::kModels: return "models";
    case Route::kReuse: return "reuse";
    case Route::kPortfolio: return "portfolio";
    case Route::kBagsList: return "bags_list";
    case Route::kBagGet: return "bag_get";
    case Route::kObservations: return "observations";
    case Route::kBagsPost: return "bags_post";
  }
  return "unknown";
}

bool same_bytes(const std::string& expected, const std::string& got, std::string* why) {
  if (expected == got) return true;
  std::size_t i = 0;
  while (i < expected.size() && i < got.size() && expected[i] == got[i]) ++i;
  return fail(why, "bytes differ at offset " + std::to_string(i) + " (expected " +
                       std::to_string(expected.size()) + " bytes, got " +
                       std::to_string(got.size()) + ")");
}

bool fleet_report_complete(const preempt::fleet::FleetReport& report, std::string* why) {
  if (report.tasks_submitted == 0) return fail(why, "fleet submitted no tasks");
  if (report.tasks_completed != report.tasks_submitted) {
    return fail(why, "fleet completed " + std::to_string(report.tasks_completed) + " of " +
                         std::to_string(report.tasks_submitted) + " tasks");
  }
  return true;
}

bool response_ok(Route route, int status, const std::string& body, std::string* why) {
  const int expected = route == Route::kBagsPost ? 202 : 200;
  if (status != expected) {
    return fail(why, std::string(route_name(route)) + ": status " + std::to_string(status) +
                         ", expected " + std::to_string(expected));
  }
  preempt::JsonValue v;
  try {
    v = preempt::parse_json(body);
  } catch (const std::exception& e) {
    return fail(why, std::string(route_name(route)) + ": unparseable body: " + e.what());
  }
  switch (route) {
    case Route::kLifetimes:
      return has_keys(v, {"regime", "expected_lifetime_hours", "mean_lifetime_hours"}, why);
    case Route::kModels:
      return has_keys(v, {"regime", "A", "tau1", "tau2", "b", "horizon"}, why);
    case Route::kReuse:
      return has_keys(v, {"regime", "reuse", "expected_existing_hours", "expected_fresh_hours",
                          "failure_probability"},
                      why);
    case Route::kPortfolio:
      if (!has_keys(v, {"jobs", "markets_used", "expected_cost", "allocation"}, why)) return false;
      if (!v.find("allocation")->is_array() || v.find("allocation")->as_array().empty()) {
        return fail(why, "portfolio: empty allocation");
      }
      return true;
    case Route::kBagsList:
      if (!has_keys(v, {"jobs", "total", "limit", "offset"}, why)) return false;
      return v.find("jobs")->is_array() ? true : fail(why, "bags_list: jobs is not an array");
    case Route::kBagGet:
      return has_keys(v, {"id", "status", "app", "jobs", "vms", "seed", "policy"}, why);
    case Route::kObservations:
      return has_keys(v, {"regime", "observed", "ks_statistic", "drift_detected"}, why);
    case Route::kBagsPost:
      if (!has_keys(v, {"id", "status"}, why)) return false;
      return v.find("status")->as_string() == "queued"
                 ? true
                 : fail(why, "bags_post: status " + v.find("status")->as_string());
  }
  return fail(why, "unknown route");
}

bool bag_report_matches(const std::string& body, const std::string& expected_report,
                        std::string* why) {
  preempt::JsonValue v;
  try {
    v = preempt::parse_json(body);
  } catch (const std::exception& e) {
    return fail(why, std::string("bag: unparseable body: ") + e.what());
  }
  const preempt::JsonValue* status = v.find("status");
  if (status == nullptr || !status->is_string() || status->as_string() != "done") {
    return fail(why, "bag: not done");
  }
  const preempt::JsonValue* report = v.find("report");
  if (report == nullptr) return fail(why, "bag: done without a report");
  return same_bytes(expected_report, report->dump(), why);
}

}  // namespace perfbench
