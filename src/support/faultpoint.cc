#include "src/support/faultpoint.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <optional>

#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace res {

namespace {

// Static-init-time registry. The mutex makes registration safe even if a
// dynamic loader initializes translation units concurrently.
struct SiteRegistry {
  std::mutex mu;
  std::vector<std::string_view> names;
};

// One fault-plan number: the whole token through ParseInt64 (which would
// trim surrounding whitespace, so the token may not carry any), within
// [lo, hi].
std::optional<int64_t> ParsePlanNumber(std::string_view text, int64_t lo,
                                       int64_t hi) {
  auto is_space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  if (text.empty() || is_space(text.front()) || is_space(text.back())) {
    return std::nullopt;
  }
  std::optional<int64_t> value = ParseInt64(text);
  if (!value.has_value() || *value < lo || *value > hi) {
    return std::nullopt;
  }
  return value;
}

SiteRegistry& Registry() {
  static SiteRegistry* r = new SiteRegistry();
  return *r;
}

}  // namespace

FaultSite::FaultSite(std::string_view name, StatusCode code)
    : name_(name), code_(code) {
  SiteRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.names.push_back(name);
}

std::vector<std::string_view> RegisteredFaultSites() {
  SiteRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string_view> names = r.names;
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void FaultPlan::Arm(std::string_view site, uint64_t nth, int task) {
  std::lock_guard<std::mutex> lock(mu_);
  ArmState arm;
  arm.task = task;
  arm.countdown = nth == 0 ? 1 : nth;
  arms_[std::string(site)].push_back(arm);
}

Status FaultPlan::Parse(std::string_view spec) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) {
      comma = spec.size();
    }
    std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) {
      continue;
    }
    int task = kAnyTask;
    size_t at = entry.rfind('@');
    if (at != std::string_view::npos) {
      std::optional<int64_t> v = ParsePlanNumber(entry.substr(at + 1), 0, INT_MAX);
      if (!v.has_value()) {
        return InvalidArgument("bad fault-plan task in '" +
                               std::string(entry) + "'");
      }
      task = static_cast<int>(*v);
      entry = entry.substr(0, at);
    }
    uint64_t nth = 1;
    size_t eq = entry.find('=');
    if (eq != std::string_view::npos) {
      std::optional<int64_t> v =
          ParsePlanNumber(entry.substr(eq + 1), 1, INT64_MAX);
      if (!v.has_value()) {
        return InvalidArgument("bad fault-plan count in '" +
                               std::string(entry) + "'");
      }
      nth = static_cast<uint64_t>(*v);
      entry = entry.substr(0, eq);
    }
    if (entry.empty()) {
      return InvalidArgument("empty fault-plan site name");
    }
    Arm(entry, nth, task);
  }
  return OkStatus();
}

bool FaultPlan::Fire(std::string_view site, int task) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = arms_.find(site);
  if (it == arms_.end()) {
    return false;
  }
  for (ArmState& arm : it->second) {
    if (arm.spent || (arm.task != kAnyTask && arm.task != task)) {
      continue;
    }
    if (--arm.countdown == 0) {
      arm.spent = true;
      ++fired_;
      return true;
    }
  }
  return false;
}

uint64_t FaultPlan::fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

bool FaultPlan::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arms_.empty();
}

void FaultPlan::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  arms_.clear();
  fired_ = 0;
}

FaultPlan* EnvFaultPlan() {
  static FaultPlan* plan = []() -> FaultPlan* {
    const char* spec = std::getenv("RES_FAULT_PLAN");
    if (spec == nullptr || spec[0] == '\0') {
      return nullptr;
    }
    auto* p = new FaultPlan();
    Status s = p->Parse(spec);
    if (!s.ok()) {
      RES_LOG(kWarning) << "ignoring RES_FAULT_PLAN: " << s.ToString();
      p->Clear();
    }
    return p;
  }();
  return plan;
}

Status FaultScope::Check(const FaultSite& site) const {
  FaultPlan* p = plan != nullptr ? plan : EnvFaultPlan();
  if (p == nullptr || !p->Fire(site.name(), task)) {
    return OkStatus();
  }
  return Status(site.code(),
                "fault injected at " + std::string(site.name()));
}

}  // namespace res
