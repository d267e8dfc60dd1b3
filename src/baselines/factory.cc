#include "baselines/factory.h"

#include "baselines/bpfi_baselines.h"
#include "baselines/online_partitioners.h"
#include "baselines/sketch_partitioner.h"

namespace prompt {

std::unique_ptr<BatchPartitioner> CreatePartitioner(
    PartitionerType type, const PartitionerConfig& config) {
  switch (type) {
    case PartitionerType::kTimeBased:
      return std::make_unique<TimeBasedPartitioner>();
    case PartitionerType::kShuffle:
      return std::make_unique<ShufflePartitioner>();
    case PartitionerType::kHash:
      return std::make_unique<HashPartitioner>();
    case PartitionerType::kPk2:
      return std::make_unique<KeySplitPartitioner>(2);
    case PartitionerType::kPk5:
      return std::make_unique<KeySplitPartitioner>(5);
    case PartitionerType::kCam:
      return std::make_unique<CamPartitioner>(config.cam_candidates);
    case PartitionerType::kPrompt:
      return std::make_unique<PromptPartitioner>(config.prompt);
    case PartitionerType::kPromptPostSort: {
      PromptPartitionerOptions opts = config.prompt;
      opts.post_sort = true;
      return std::make_unique<PromptPartitioner>(opts);
    }
    case PartitionerType::kFfd:
      return std::make_unique<BpfiBaselinePartitioner>(
          BpfiBaselinePartitioner::Kind::kFfd, config.prompt.accumulator);
    case PartitionerType::kFragMin:
      return std::make_unique<BpfiBaselinePartitioner>(
          BpfiBaselinePartitioner::Kind::kFragMin, config.prompt.accumulator);
    case PartitionerType::kSketch: {
      SketchPartitionerOptions opts;
      opts.sketch_capacity = config.sketch_capacity;
      return std::make_unique<SketchPartitioner>(opts);
    }
  }
  return nullptr;
}

Result<PartitionerType> PartitionerTypeFromName(const std::string& name) {
  if (name == "TimeBased" || name == "Time") return PartitionerType::kTimeBased;
  if (name == "Shuffle") return PartitionerType::kShuffle;
  if (name == "Hash" || name == "Hashing") return PartitionerType::kHash;
  if (name == "PK2") return PartitionerType::kPk2;
  if (name == "PK5") return PartitionerType::kPk5;
  if (name == "cAM" || name == "CAM") return PartitionerType::kCam;
  if (name == "Prompt") return PartitionerType::kPrompt;
  if (name == "Prompt+PostSort" || name == "PostSort") {
    return PartitionerType::kPromptPostSort;
  }
  if (name == "FFD") return PartitionerType::kFfd;
  if (name == "FragMin") return PartitionerType::kFragMin;
  if (name == "SketchHH" || name == "Sketch") return PartitionerType::kSketch;
  return Status::Invalid("unknown partitioner name: " + name);
}

std::vector<PartitionerType> EvaluationTechniques() {
  return {PartitionerType::kTimeBased, PartitionerType::kShuffle,
          PartitionerType::kHash,      PartitionerType::kPk2,
          PartitionerType::kPk5,       PartitionerType::kCam,
          PartitionerType::kPrompt};
}

const char* PartitionerTypeName(PartitionerType type) {
  switch (type) {
    case PartitionerType::kTimeBased: return "TimeBased";
    case PartitionerType::kShuffle: return "Shuffle";
    case PartitionerType::kHash: return "Hash";
    case PartitionerType::kPk2: return "PK2";
    case PartitionerType::kPk5: return "PK5";
    case PartitionerType::kCam: return "cAM";
    case PartitionerType::kPrompt: return "Prompt";
    case PartitionerType::kPromptPostSort: return "Prompt+PostSort";
    case PartitionerType::kFfd: return "FFD";
    case PartitionerType::kFragMin: return "FragMin";
    case PartitionerType::kSketch: return "SketchHH";
  }
  return "?";
}

}  // namespace prompt
