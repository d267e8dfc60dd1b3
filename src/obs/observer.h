// The interface for external observers of a run: user code attaches one
// (MicroBatchEngine::AddObserver) for custom collection — tests, dashboards,
// experiment harnesses — and the Observability composite (observability.h)
// calls it after its own registry, time series and sinks, with each
// published report and its trace.
#pragma once

#include <cstdint>

#include "obs/batch_report.h"
#include "obs/trace.h"

namespace prompt {

/// \brief Callbacks invoked by MicroBatchEngine on its driver thread, in
/// batch order. Implementations must not block (they sit between batches on
/// the engine loop) and must not retain the references past the call.
class Observer {
 public:
  virtual ~Observer() = default;

  /// A Run() of `num_batches` intervals is starting.
  virtual void OnRunStart(uint32_t num_batches) { (void)num_batches; }

  /// One batch finished processing. `trace` covers the batch's timeline;
  /// its depth-0 spans tile report.latency.
  virtual void OnBatchComplete(const BatchReport& report,
                               const BatchTrace& trace) {
    (void)report;
    (void)trace;
  }

  /// The Run() call is returning.
  virtual void OnRunEnd() {}
};

}  // namespace prompt
