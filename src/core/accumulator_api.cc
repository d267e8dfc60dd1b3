#include "core/accumulator_api.h"

#include "core/flat_accumulator.h"
#include "core/sketch_accumulator.h"

namespace prompt {

const char* AccumulatorKindName(AccumulatorKind kind) {
  switch (kind) {
    case AccumulatorKind::kFlat:
      return "flat";
    case AccumulatorKind::kSketch:
      return "sketch";
  }
  return "unknown";
}

std::unique_ptr<Accumulator> MakeAccumulator(AccumulatorKind kind,
                                             AccumulatorOptions options) {
  switch (kind) {
    case AccumulatorKind::kFlat:
      return std::make_unique<FlatAccumulator>(options);
    case AccumulatorKind::kSketch:
      return std::make_unique<SketchAccumulator>(options);
  }
  PROMPT_CHECK_MSG(false, "unknown AccumulatorKind");
  return nullptr;
}

}  // namespace prompt
