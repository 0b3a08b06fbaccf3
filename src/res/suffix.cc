#include "src/res/suffix.h"

#include "src/support/string_util.h"

namespace res {

SuffixChainPtr ExtendSuffixChain(SuffixChainPtr head, SuffixUnit unit) {
  auto node = std::make_shared<SuffixChainNode>();
  node->unit = std::move(unit);
  node->depth = head ? head->depth + 1 : 1;
  node->prev = std::move(head);
  return node;
}

std::vector<const SuffixUnit*> SuffixChainUnits(const SuffixChainNode* head) {
  std::vector<const SuffixUnit*> units;
  if (head != nullptr) {
    units.reserve(head->depth);
  }
  for (const SuffixChainNode* n = head; n != nullptr; n = n->prev.get()) {
    units.push_back(&n->unit);
  }
  return units;
}

std::vector<ScheduleSlice> BuildSchedule(const Module& /*module*/, const Coredump& dump,
                                         const SynthesizedSuffix& suffix) {
  std::vector<ScheduleSlice> slices;
  auto append = [&slices](uint32_t tid, uint64_t steps) {
    if (steps == 0) {
      return;
    }
    if (!slices.empty() && slices.back().tid == tid) {
      slices.back().steps += steps;
    } else {
      slices.push_back(ScheduleSlice{tid, steps});
    }
  };

  for (const SuffixUnit& u : suffix.units) {
    append(u.tid, u.end_index);
  }

  // Threads blocked at the dump executed one extra (non-completing) lock or
  // join attempt after their last suffix unit; schedule those attempts at
  // the end, before the trap step.
  for (const ThreadDump& t : dump.threads) {
    if (t.state == ThreadState::kBlockedOnLock ||
        t.state == ThreadState::kBlockedOnJoin) {
      append(t.id, 1);
    }
  }

  // The faulting instruction itself (excluded from every unit) executes last
  // — except for deadlocks, where the "trap" is the scheduler finding no
  // runnable thread rather than an instruction.
  if (dump.trap.kind != TrapKind::kDeadlock) {
    append(dump.trap.thread, 1);
  }
  return slices;
}

ReadWriteSets ComputeReadWriteSets(const SynthesizedSuffix& suffix) {
  ReadWriteSets sets;
  for (const SuffixUnit& u : suffix.units) {
    for (const MemAccess& a : u.accesses) {
      if (a.is_write) {
        sets.writes.insert(a.addr);
      } else {
        sets.reads.insert(a.addr);
      }
    }
  }
  return sets;
}

std::string SuffixToString(const Module& module, const SynthesizedSuffix& suffix) {
  std::string out;
  for (size_t i = 0; i < suffix.units.size(); ++i) {
    const SuffixUnit& u = suffix.units[i];
    const Function& fn = module.function(u.block.func);
    out += StrFormat("%3zu: t%u %s.%s [0,%u)%s\n", i, u.tid, fn.name.c_str(),
                     fn.blocks[u.block.block].name.c_str(), u.end_index,
                     u.includes_terminator ? "" : " (partial)");
  }
  return out;
}

}  // namespace res
