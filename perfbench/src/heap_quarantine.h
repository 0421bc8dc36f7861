// Deferred frees around one optimizer search.
//
// The CostModel walk memo is keyed by raw Expr* address for the length
// of one Optimizer::Optimize call. Candidates freed inside that search
// hand their addresses back to the allocator, a later candidate can land
// on one of them, and its cost is then read from the stale memo entry.
// Which addresses recur depends on the heap's state, so without help the
// plan chosen for a query — and every message and byte it costs —
// varies with the seed's allocation history rather than with the query.
//
// While a HeapQuarantine is live, the benchmark binary's global operator
// delete holds every freed block instead of returning it; the destructor
// frees them all. No address is reused inside the scope, so the memo
// never hits a stale entry and the plan is a function of the query and
// the system. A fix of the memo key in src/ leaves the plans unchanged.

#ifndef AXML_PERFBENCH_HEAP_QUARANTINE_H_
#define AXML_PERFBENCH_HEAP_QUARANTINE_H_

namespace axml::perfbench {

class HeapQuarantine {
 public:
  HeapQuarantine();
  ~HeapQuarantine();
  HeapQuarantine(const HeapQuarantine&) = delete;
  HeapQuarantine& operator=(const HeapQuarantine&) = delete;
};

}  // namespace axml::perfbench

#endif  // AXML_PERFBENCH_HEAP_QUARANTINE_H_
