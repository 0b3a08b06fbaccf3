#include "src/vm/scheduler_spec.h"

#include <charconv>
#include <limits>

#include "src/support/string_util.h"

namespace res {

namespace {

// Knob applicability, mirrored in RegisteredSchedulerPolicies() and in the
// docs/SCENARIOS.md catalog (tools/check_docs.sh keeps the names in sync).
bool KnobApplies(std::string_view policy, std::string_view knob) {
  if (policy == "rr") {
    return knob == "quantum";
  }
  if (policy == "random") {
    return knob == "seed" || knob == "permille";
  }
  if (policy == "pct") {
    return knob == "seed" || knob == "depth" || knob == "steps";
  }
  if (policy == "delay") {
    return knob == "seed" || knob == "permille" || knob == "max_delay" ||
           knob == "quantum";
  }
  return false;
}

// Accepted range of each numeric knob, checked before the value is narrowed
// into its SchedulerSpec field. PCT's depth is a bug depth (a handful in
// practice); capping it bounds PctScheduler's change-point table at
// kMaxPctDepth - 1 entries.
constexpr uint64_t kMaxPctDepth = 1024;
struct KnobRange {
  std::string_view knob;
  uint64_t lo;
  uint64_t hi;
};
constexpr uint64_t kU32Max = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
constexpr KnobRange kKnobRanges[] = {
    KnobRange{"seed", 0, kU64Max},       KnobRange{"quantum", 0, kU32Max},
    KnobRange{"permille", 0, 1000},      KnobRange{"depth", 1, kMaxPctDepth},
    KnobRange{"steps", 1, kU64Max},      KnobRange{"max_delay", 1, kU32Max},
};

Result<uint64_t> ParseKnobValue(std::string_view policy, std::string_view knob,
                                std::string_view value) {
  uint64_t parsed = 0;
  const char* begin = value.data();
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec != std::errc() || ptr != end || value.empty()) {
    return InvalidArgument(StrFormat(
        "scheduler spec: knob '%.*s=%.*s' of policy '%.*s' is not an "
        "unsigned integer",
        static_cast<int>(knob.size()), knob.data(),
        static_cast<int>(value.size()), value.data(),
        static_cast<int>(policy.size()), policy.data()));
  }
  for (const KnobRange& r : kKnobRanges) {
    if (r.knob == knob && (parsed < r.lo || parsed > r.hi)) {
      return InvalidArgument(StrFormat(
          "scheduler spec: knob '%.*s=%.*s' of policy '%.*s' is outside "
          "[%llu, %llu]",
          static_cast<int>(knob.size()), knob.data(),
          static_cast<int>(value.size()), value.data(),
          static_cast<int>(policy.size()), policy.data(),
          static_cast<unsigned long long>(r.lo),
          static_cast<unsigned long long>(r.hi)));
    }
  }
  return parsed;
}

}  // namespace

const std::vector<SchedulerPolicyInfo>& RegisteredSchedulerPolicies() {
  static const std::vector<SchedulerPolicyInfo>* policies = [] {
    auto* v = new std::vector<SchedulerPolicyInfo>{
        {"rr", "quantum",
         "fixed-quantum round-robin; fully deterministic, seed-free", true},
        {"random", "seed,permille",
         "seeded per-step preemption (the classic corpus driver)", true},
        {"pct", "seed,depth,steps",
         "randomized thread priorities with depth-1 seeded change points",
         true},
        {"delay", "seed,permille,max_delay,quantum",
         "round-robin with seeded extra yields injected at schedule points",
         true},
        {"scripted", "",
         "follows an explicit block-level schedule (suffix replay)", false},
        {"slice", "",
         "instruction-count schedule slices (precise trailing-block replay)",
         false},
    };
    return v;
  }();
  return *policies;
}

std::string SchedulerSpec::ToString() const {
  if (policy == "rr") {
    return StrFormat("rr:quantum=%u", quantum);
  }
  if (policy == "random") {
    return StrFormat("random:seed=%llu,permille=%u",
                     static_cast<unsigned long long>(seed), permille);
  }
  if (policy == "pct") {
    return StrFormat("pct:seed=%llu,depth=%u,steps=%llu",
                     static_cast<unsigned long long>(seed), depth,
                     static_cast<unsigned long long>(steps));
  }
  if (policy == "delay") {
    return StrFormat("delay:seed=%llu,permille=%u,max_delay=%u,quantum=%u",
                     static_cast<unsigned long long>(seed), permille,
                     max_delay, quantum);
  }
  return policy;
}

Result<SchedulerSpec> ParseSchedulerSpec(std::string_view text) {
  std::string_view trimmed = StrTrim(text);
  if (trimmed.empty()) {
    return InvalidArgument("scheduler spec: empty string");
  }
  std::string_view name = trimmed;
  std::string_view knob_text;
  if (size_t colon = trimmed.find(':'); colon != std::string_view::npos) {
    name = trimmed.substr(0, colon);
    knob_text = trimmed.substr(colon + 1);
  }
  const SchedulerPolicyInfo* info = nullptr;
  for (const SchedulerPolicyInfo& p : RegisteredSchedulerPolicies()) {
    if (p.name == name) {
      info = &p;
      break;
    }
  }
  if (info == nullptr) {
    return InvalidArgument(StrFormat(
        "scheduler spec: unknown policy '%.*s'",
        static_cast<int>(name.size()), name.data()));
  }
  if (!info->spec_constructible) {
    return InvalidArgument(StrFormat(
        "scheduler spec: policy '%.*s' requires an explicit schedule and "
        "cannot be built from a spec string",
        static_cast<int>(name.size()), name.data()));
  }

  SchedulerSpec spec;
  spec.policy = std::string(name);
  for (std::string_view pair : StrSplit(knob_text, ',', /*skip_empty=*/true)) {
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgument(StrFormat(
          "scheduler spec: knob '%.*s' is not of the form name=value",
          static_cast<int>(pair.size()), pair.data()));
    }
    std::string_view knob = StrTrim(pair.substr(0, eq));
    std::string_view value = StrTrim(pair.substr(eq + 1));
    if (!KnobApplies(spec.policy, knob)) {
      return InvalidArgument(StrFormat(
          "scheduler spec: policy '%s' does not accept knob '%.*s' "
          "(accepts: %.*s)",
          spec.policy.c_str(), static_cast<int>(knob.size()), knob.data(),
          static_cast<int>(info->knobs.size()), info->knobs.data()));
    }
    // In range (kKnobRanges), so the narrowing casts below are exact.
    RES_ASSIGN_OR_RETURN(uint64_t parsed,
                         ParseKnobValue(spec.policy, knob, value));
    if (knob == "seed") {
      spec.seed = parsed;
    } else if (knob == "quantum") {
      spec.quantum = static_cast<uint32_t>(parsed);
    } else if (knob == "permille") {
      spec.permille = static_cast<uint32_t>(parsed);
    } else if (knob == "depth") {
      spec.depth = static_cast<uint32_t>(parsed);
    } else if (knob == "steps") {
      spec.steps = parsed;
    } else if (knob == "max_delay") {
      spec.max_delay = static_cast<uint32_t>(parsed);
    }
  }
  // Checked once every knob is read (depth and steps come in either order):
  // the depth-1 change points are sampled from the first `steps` decisions.
  if (spec.policy == "pct" && spec.depth - 1 > spec.steps) {
    return InvalidArgument(StrFormat(
        "scheduler spec: pct depth=%u needs %u change points but steps=%llu "
        "offers fewer decisions",
        spec.depth, spec.depth - 1,
        static_cast<unsigned long long>(spec.steps)));
  }
  return spec;
}

Result<std::unique_ptr<Scheduler>> MakeScheduler(const SchedulerSpec& spec) {
  return MakeScheduler(spec, spec.seed);
}

Result<std::unique_ptr<Scheduler>> MakeScheduler(const SchedulerSpec& spec,
                                                 uint64_t seed) {
  if (spec.policy == "rr") {
    return std::unique_ptr<Scheduler>(
        std::make_unique<RoundRobinScheduler>(spec.quantum));
  }
  if (spec.policy == "random") {
    return std::unique_ptr<Scheduler>(
        std::make_unique<RandomScheduler>(seed, spec.permille));
  }
  if (spec.policy == "pct") {
    return std::unique_ptr<Scheduler>(
        std::make_unique<PctScheduler>(seed, spec.depth, spec.steps));
  }
  if (spec.policy == "delay") {
    return std::unique_ptr<Scheduler>(std::make_unique<DelayInjectionScheduler>(
        seed, spec.permille, spec.max_delay, spec.quantum));
  }
  return InvalidArgument(StrFormat(
      "scheduler spec: policy '%s' cannot be built from a spec",
      spec.policy.c_str()));
}

}  // namespace res
