#include "replay/journal.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "fault/fault_injector.h"

namespace prompt {

namespace {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }

void PutI32(std::string* out, int32_t v) { PutU32(out, static_cast<uint32_t>(v)); }

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

/// Bytes PutVarint writes for `v`: one per started group of 7 bits.
size_t VarintBytes(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v | 1) + 6) / 7;
}

char* PutVarint(char* out, uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<char>(v);
  return out;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Bounds-checked little-endian reader over one record body.
class Cursor {
 public:
  Cursor(const std::string& bytes, size_t offset)
      : data_(bytes.data()), size_(bytes.size()), pos_(offset) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > size_) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    std::memcpy(v, data_ + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    std::memcpy(v, data_ + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool I32(int32_t* v) {
    uint32_t u;
    if (!U32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }
  bool Varint(uint64_t* v) {
    uint64_t result = 0;
    for (uint32_t shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) return false;
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = result;
        return true;
      }
    }
    return false;
  }
  std::string Rest() { return std::string(data_ + pos_, size_ - pos_); }
  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_;
};

/// Strict `seg-NNNNNN.log` name parse, mirroring the block store's.
bool ParseSegmentFilename(const std::string& name, uint64_t* id) {
  constexpr const char* kPrefix = "seg-";
  constexpr const char* kSuffix = ".log";
  if (name.size() <= 4 + 4) return false;
  if (name.compare(0, 4, kPrefix) != 0) return false;
  if (name.compare(name.size() - 4, 4, kSuffix) != 0) return false;
  uint64_t value = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = value;
  return true;
}

/// Sorted (id, path) of every well-named segment in `dir`.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t id = 0;
    if (!entry.is_regular_file()) continue;
    if (!ParseSegmentFilename(entry.path().filename().string(), &id)) continue;
    segments.emplace_back(id, entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

std::string EncodeTuples(const std::vector<Tuple>& tuples) {
  // Key runs: adjacent same-key tuples collapse to one (key, count) pair.
  // A first pass sizes the record exactly; the second writes it through a
  // pointer.
  auto run_end = [&tuples](size_t i) {
    size_t j = i + 1;
    while (j < tuples.size() && tuples[j].key == tuples[i].key) ++j;
    return j;
  };
  uint64_t run_count = 0;
  size_t bytes = 1 + VarintBytes(tuples.size());
  for (size_t i = 0; i < tuples.size();) {
    const size_t j = run_end(i);
    ++run_count;
    bytes += VarintBytes(tuples[i].key) + VarintBytes(j - i);
    i = j;
  }
  bytes += VarintBytes(run_count);
  bool all_unit = true;
  TimeMicros prev = 0;
  for (const Tuple& t : tuples) {
    all_unit = all_unit && t.value == 1.0;
    bytes += VarintBytes(ZigZag(t.ts - prev));
    prev = t.ts;
  }
  if (!all_unit) bytes += 8 * tuples.size();

  std::string body(bytes, '\0');
  char* out = body.data();
  *out++ = all_unit ? 1 : 0;
  out = PutVarint(out, tuples.size());
  out = PutVarint(out, run_count);
  for (size_t i = 0; i < tuples.size();) {
    const size_t j = run_end(i);
    out = PutVarint(out, tuples[i].key);
    out = PutVarint(out, j - i);
    i = j;
  }
  prev = 0;
  for (const Tuple& t : tuples) {
    out = PutVarint(out, ZigZag(t.ts - prev));
    prev = t.ts;
  }
  if (!all_unit) {
    for (const Tuple& t : tuples) {
      std::memcpy(out, &t.value, 8);
      out += 8;
    }
  }
  PROMPT_CHECK(out == body.data() + body.size());
  return body;
}

Status DecodeTuples(const std::string& payload, std::vector<Tuple>* out) {
  Cursor c(payload, kPayloadHeaderBytes);
  uint8_t flags = 0;
  uint64_t count = 0, runs = 0;
  if (!c.U8(&flags) || !c.Varint(&count) || !c.Varint(&runs)) {
    return Status::Invalid("journal: truncated tuple record header");
  }
  if (count > (1ull << 32) || runs > count) {
    return Status::Invalid("journal: implausible tuple record counts");
  }
  std::vector<Tuple> tuples;
  tuples.reserve(count);
  for (uint64_t r = 0; r < runs; ++r) {
    uint64_t key = 0, n = 0;
    if (!c.Varint(&key) || !c.Varint(&n)) {
      return Status::Invalid("journal: truncated key run");
    }
    if (tuples.size() + n > count) {
      return Status::Invalid("journal: key runs exceed tuple count");
    }
    for (uint64_t k = 0; k < n; ++k) {
      Tuple t;
      t.key = key;
      t.value = 1.0;
      tuples.push_back(t);
    }
  }
  if (tuples.size() != count) {
    return Status::Invalid("journal: key runs short of tuple count");
  }
  TimeMicros prev = 0;
  for (Tuple& t : tuples) {
    uint64_t delta = 0;
    if (!c.Varint(&delta)) return Status::Invalid("journal: truncated ts delta");
    prev += UnZigZag(delta);
    t.ts = prev;
  }
  if ((flags & 1) == 0) {
    for (Tuple& t : tuples) {
      if (!c.F64(&t.value)) return Status::Invalid("journal: truncated value");
    }
  }
  out->insert(out->end(), tuples.begin(), tuples.end());
  return Status::OK();
}

std::string EncodeOutcome(const BatchOutcome& o) {
  std::string body;
  PutU64(&body, o.output_hash);
  for (double v : o.signals) PutF64(&body, v);
  PutI64(&body, o.map_makespan);
  PutI64(&body, o.reduce_makespan);
  PutI64(&body, o.partition_overflow);
  PutI32(&body, o.technique);
  PutU8(&body, o.technique_switched ? 1 : 0);
  PutI32(&body, o.switched_from);
  PutU8(&body, static_cast<uint8_t>(o.dominant));
  PutI64(&body, o.total_excess);
  PutI64(&body, o.threshold);
  for (TimeMicros e : o.excess) PutI64(&body, e);
  return body;
}

Status DecodeOutcome(const std::string& payload, uint64_t batch_id,
                     BatchOutcome* out) {
  Cursor c(payload, kPayloadHeaderBytes);
  BatchOutcome o;
  o.batch_id = batch_id;
  bool ok = c.U64(&o.output_hash);
  for (size_t s = 0; ok && s < kTimeSeriesSignals; ++s) ok = c.F64(&o.signals[s]);
  ok = ok && c.I64(&o.map_makespan) && c.I64(&o.reduce_makespan) &&
       c.I64(&o.partition_overflow) && c.I32(&o.technique);
  uint8_t switched = 0, dominant = 0;
  ok = ok && c.U8(&switched) && c.I32(&o.switched_from) && c.U8(&dominant) &&
       c.I64(&o.total_excess) && c.I64(&o.threshold);
  for (size_t e = 0; ok && e < kBatchCauses; ++e) ok = c.I64(&o.excess[e]);
  if (!ok || dominant >= kBatchCauses) {
    return Status::Invalid("journal: malformed outcome record");
  }
  o.technique_switched = switched != 0;
  o.dominant = static_cast<BatchCause>(dominant);
  *out = o;
  return Status::OK();
}

std::string EncodeEnv(const BatchEnv& env) {
  std::string body;
  PutI64(&body, env.partition_cost);
  PutI64(&body, env.seal_barrier_latency);
  PutI64(&body, env.merge_latency);
  PutU64(&body, env.ring_high_water);
  PutU64(&body, env.ring_capacity);
  return body;
}

Status DecodeEnv(const std::string& payload, uint64_t batch_id,
                 BatchEnv* out) {
  Cursor c(payload, kPayloadHeaderBytes);
  BatchEnv env;
  env.batch_id = batch_id;
  if (!c.I64(&env.partition_cost) || !c.I64(&env.seal_barrier_latency) ||
      !c.I64(&env.merge_latency) || !c.U64(&env.ring_high_water) ||
      !c.U64(&env.ring_capacity)) {
    return Status::Invalid("journal: malformed batch-env record");
  }
  *out = env;
  return Status::OK();
}

}  // namespace

// ---- JournalManifest ----

void JournalManifest::Set(std::string key, std::string value) {
  entries_.emplace_back(std::move(key), std::move(value));
}

std::string JournalManifest::Get(const std::string& key,
                                 const std::string& fallback) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  return fallback;
}

std::vector<std::string> JournalManifest::GetAll(const std::string& key) const {
  std::vector<std::string> values;
  for (const auto& [k, v] : entries_) {
    if (k == key) values.push_back(v);
  }
  return values;
}

std::string JournalManifest::Serialize() const {
  std::string text;
  for (const auto& [k, v] : entries_) {
    text += k;
    text += '=';
    text += v;
    text += '\n';
  }
  return text;
}

Result<JournalManifest> JournalManifest::Parse(const std::string& text) {
  JournalManifest manifest;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::Invalid("journal manifest: line without '=': " + line);
    }
    manifest.Set(line.substr(0, eq), line.substr(eq + 1));
  }
  return manifest;
}

// ---- Outcome helpers ----

bool BatchOutcome::BitIdentical(const BatchOutcome& other) const {
  auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, 8);
    return b;
  };
  if (batch_id != other.batch_id || output_hash != other.output_hash ||
      map_makespan != other.map_makespan ||
      reduce_makespan != other.reduce_makespan ||
      partition_overflow != other.partition_overflow ||
      technique != other.technique ||
      technique_switched != other.technique_switched ||
      switched_from != other.switched_from || dominant != other.dominant ||
      total_excess != other.total_excess || threshold != other.threshold ||
      excess != other.excess) {
    return false;
  }
  for (size_t s = 0; s < kTimeSeriesSignals; ++s) {
    if (bits(signals[s]) != bits(other.signals[s])) return false;
  }
  return true;
}

BatchOutcome OutcomeFrom(const BatchReport& report,
                         const BatchAutopsy& autopsy) {
  BatchOutcome o;
  o.batch_id = report.batch_id;
  o.output_hash = report.output_hash;
  o.signals = TimeSeriesStore::PointFrom(report).values;
  o.map_makespan = report.map_makespan;
  o.reduce_makespan = report.reduce_makespan;
  o.partition_overflow = report.partition_overflow;
  o.technique = report.technique;
  o.technique_switched = report.technique_switched;
  o.switched_from = report.switched_from;
  o.dominant = autopsy.dominant;
  o.total_excess = autopsy.total_excess;
  o.threshold = autopsy.threshold;
  o.excess = autopsy.excess;
  return o;
}

BatchEnv SettleBatchEnv(const std::shared_ptr<const ReplayEnv>& inject,
                        uint32_t owner, PartitionedBatch* batch,
                        IngestMetrics* metrics) {
  BatchEnv env;
  env.batch_id = batch->batch_id;
  const BatchEnv* recorded = nullptr;
  if (inject != nullptr) {
    auto it = inject->find({owner, batch->batch_id});
    if (it != inject->end()) recorded = &it->second;
  }
  // The partitioner decision cost is Stopwatch-measured: the one wall-clock
  // quantity on the sealing path. Replay substitutes the recorded value so
  // partition_overflow — and everything downstream of it — is bit-identical
  // rather than merely close.
  if (recorded != nullptr) batch->partition_cost = recorded->partition_cost;
  env.partition_cost = batch->partition_cost;
  if (metrics != nullptr) {
    if (recorded != nullptr) {
      env.seal_barrier_latency = recorded->seal_barrier_latency;
      env.merge_latency = recorded->merge_latency;
      env.ring_high_water = recorded->ring_high_water;
      env.ring_capacity = recorded->ring_capacity;
      // The thread-timing-dependent ingest numbers the report carries.
      metrics->seal_barrier_latency = env.seal_barrier_latency;
      metrics->merge_latency = env.merge_latency;
      for (ShardIngestStats& s : metrics->shards) s.ring_high_water = 0;
      if (metrics->shards.empty()) metrics->shards.resize(1);
      metrics->shards[0].ring_high_water = env.ring_high_water;
      metrics->shards[0].ring_capacity = env.ring_capacity;
    } else {
      env.seal_barrier_latency = metrics->seal_barrier_latency;
      env.merge_latency = metrics->merge_latency;
      // The worst shard's occupancy sample: the two integers whose division
      // is MaxRingOccupancyFrac (same comparison, so the same argmax).
      double worst = -1;
      for (const ShardIngestStats& s : metrics->shards) {
        if (s.ring_capacity == 0) continue;
        const double frac = static_cast<double>(s.ring_high_water) /
                            static_cast<double>(s.ring_capacity);
        if (frac > worst) {
          worst = frac;
          env.ring_high_water = s.ring_high_water;
          env.ring_capacity = s.ring_capacity;
        }
      }
    }
  }
  return env;
}

uint64_t HashBatchOutput(const std::vector<KV>& output) {
  // XOR-combined per-entry mixes: commutative, so replica/block emission
  // order cannot matter, and a (key, value) change always flips the hash.
  uint64_t h = Mix64(output.size() ^ 0x9E3779B97F4A7C15ull);
  for (const KV& kv : output) {
    uint64_t bits;
    std::memcpy(&bits, &kv.value, 8);
    h ^= Mix64(kv.key ^ Mix64(bits));
  }
  return h;
}

// ---- JournalAttempt / JournalData ----

size_t JournalAttempt::published_batches() const {
  auto it = outcomes.find(0);
  return it != outcomes.end() ? it->second.size() : 0;
}

bool JournalAttempt::crashed() const {
  for (const JournalFault& f : faults) {
    if (f.kind == static_cast<uint8_t>(FaultKind::kCrash)) return true;
  }
  return false;
}

std::vector<Tuple> JournalData::AllTuples() const {
  std::vector<Tuple> all;
  for (const JournalAttempt& a : attempts) {
    all.insert(all.end(), a.tuples.begin(), a.tuples.end());
  }
  return all;
}

std::map<uint32_t, std::vector<BatchOutcome>> JournalData::AllOutcomes() const {
  std::map<uint32_t, std::vector<BatchOutcome>> all;
  for (const JournalAttempt& a : attempts) {
    for (const auto& [owner, outcomes] : a.outcomes) {
      all[owner].insert(all[owner].end(), outcomes.begin(), outcomes.end());
    }
  }
  return all;
}

std::vector<JournalSwitch> JournalData::AllSwitches() const {
  std::vector<JournalSwitch> all;
  for (const JournalAttempt& a : attempts) {
    all.insert(all.end(), a.switches.begin(), a.switches.end());
  }
  return all;
}

// ---- ReadJournal ----

Result<JournalData> ReadJournal(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::IOError("journal directory not found: " + dir);
  }
  const auto segments = ListSegments(dir);
  if (segments.empty()) {
    return Status::Invalid("no journal segments in " + dir);
  }
  JournalData data;
  bool have_manifest = false;
  JournalManifest pending_manifest;
  bool have_pending_manifest = false;
  JournalAttempt* attempt = nullptr;
  for (const auto& [id, path] : segments) {
    PROMPT_ASSIGN_OR_RETURN(SegmentScan scan, ScanSegmentFile(path));
    if (!scan.header_ok) {
      PROMPT_LOG(kWarn) << "journal: skipping corrupt-header segment " << path;
      continue;
    }
    data.torn_records += scan.torn_records;
    for (const SegmentRecord& record : scan.records) {
      Cursor c(record.payload, 0);
      uint8_t kind = 0;
      uint32_t owner = 0;
      uint64_t batch_id = 0;
      if (!c.U8(&kind) || !c.U32(&owner) || !c.U64(&batch_id)) {
        return Status::Invalid("journal: record shorter than payload header");
      }
      switch (static_cast<JournalRecordKind>(kind)) {
        case JournalRecordKind::kManifest: {
          PROMPT_ASSIGN_OR_RETURN(pending_manifest,
                                  JournalManifest::Parse(c.Rest()));
          have_pending_manifest = true;
          if (!have_manifest) {
            data.manifest = pending_manifest;
            have_manifest = true;
          }
          break;
        }
        case JournalRecordKind::kRunStart: {
          data.attempts.emplace_back();
          attempt = &data.attempts.back();
          // Each Open appends its lifetime's manifest just before the
          // run-start marker; bind it to this attempt.
          if (have_pending_manifest) {
            attempt->manifest = std::move(pending_manifest);
            have_pending_manifest = false;
          }
          break;
        }
        case JournalRecordKind::kBatchTuples: {
          if (attempt == nullptr) {
            data.attempts.emplace_back();
            attempt = &data.attempts.back();
          }
          PROMPT_RETURN_NOT_OK(DecodeTuples(record.payload, &attempt->tuples));
          break;
        }
        case JournalRecordKind::kOutcome: {
          if (attempt == nullptr) {
            data.attempts.emplace_back();
            attempt = &data.attempts.back();
          }
          BatchOutcome outcome;
          PROMPT_RETURN_NOT_OK(
              DecodeOutcome(record.payload, batch_id, &outcome));
          attempt->outcomes[owner].push_back(outcome);
          break;
        }
        case JournalRecordKind::kSwitch: {
          if (attempt == nullptr) {
            data.attempts.emplace_back();
            attempt = &data.attempts.back();
          }
          JournalSwitch s;
          s.owner = owner;
          s.after_batch = batch_id;
          if (!c.I32(&s.from) || !c.I32(&s.to)) {
            return Status::Invalid("journal: malformed switch record");
          }
          s.reason = c.Rest();
          attempt->switches.push_back(std::move(s));
          break;
        }
        case JournalRecordKind::kFault: {
          if (attempt == nullptr) {
            data.attempts.emplace_back();
            attempt = &data.attempts.back();
          }
          JournalFault f;
          f.batch_id = batch_id;
          f.target = owner;
          if (!c.U8(&f.point) || !c.U8(&f.kind)) {
            return Status::Invalid("journal: malformed fault record");
          }
          attempt->faults.push_back(f);
          break;
        }
        case JournalRecordKind::kBatchEnv: {
          if (attempt == nullptr) {
            data.attempts.emplace_back();
            attempt = &data.attempts.back();
          }
          BatchEnv env;
          PROMPT_RETURN_NOT_OK(DecodeEnv(record.payload, batch_id, &env));
          attempt->envs[{owner, batch_id}] = env;
          break;
        }
        default:
          return Status::Invalid("journal: unknown record kind " +
                                 std::to_string(kind) + " in " + path);
      }
    }
  }
  if (!have_manifest) {
    return Status::Invalid(dir + " has segments but no manifest record "
                                 "(not a journal directory?)");
  }
  return data;
}

// ---- JournalWriter ----

JournalWriter::JournalWriter(JournalOptions options)
    : options_(std::move(options)) {}

JournalWriter::~JournalWriter() = default;

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const JournalOptions& options, const JournalManifest& manifest) {
  if (!options.enabled()) {
    return Status::Invalid("journal: empty directory in options");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("journal: cannot create " + options.dir + ": " +
                           ec.message());
  }
  std::unique_ptr<JournalWriter> writer(new JournalWriter(options));
  const auto segments = ListSegments(options.dir);
  if (segments.empty()) {
    writer->fresh_ = true;
    PROMPT_ASSIGN_OR_RETURN(SegmentWriter * active, writer->ActiveSegment());
    (void)active;
  } else {
    // Resuming an existing journal (crash/restart lineage): truncate any
    // torn tail, then reopen the newest segment for append.
    for (const auto& [id, path] : segments) {
      PROMPT_ASSIGN_OR_RETURN(SegmentScan scan, ScanSegmentFile(path));
      if (!scan.header_ok) {
        return Status::IOError("journal: corrupt segment header in " + path);
      }
      if (scan.torn_bytes > 0) {
        PROMPT_LOG(kWarn) << "journal: truncating " << scan.torn_bytes
                          << " torn byte(s) from " << path;
        PROMPT_RETURN_NOT_OK(TruncateFile(path, scan.valid_bytes));
      }
      writer->appended_bytes_ += scan.valid_bytes;
    }
    const auto& [newest_id, newest_path] = segments.back();
    PROMPT_ASSIGN_OR_RETURN(SegmentScan newest, ScanSegmentFile(newest_path));
    PROMPT_ASSIGN_OR_RETURN(
        writer->active_,
        SegmentWriter::OpenExisting(newest_path, newest.valid_bytes));
    writer->active_id_ = newest_id;
  }
  // One manifest + run-start marker per engine lifetime — resumed runs may
  // carry different options than the run they extend (a restart typically
  // drops the crash fault that ended its predecessor), so each attempt
  // journals its own configuration. Fsynced immediately so replay can
  // always partition attempts, whatever the append policy.
  PROMPT_RETURN_NOT_OK(writer->Append(
      JournalRecordKind::kManifest, 0, 0, manifest.Serialize()));
  PROMPT_RETURN_NOT_OK(
      writer->Append(JournalRecordKind::kRunStart, 0, 0, std::string()));
  PROMPT_RETURN_NOT_OK(writer->Sync());
  return writer;
}

Result<SegmentWriter*> JournalWriter::ActiveSegment() {
  if (active_ != nullptr && active_->size() < options_.segment_bytes) {
    return active_.get();
  }
  if (active_ != nullptr) {
    // Seal: everything in a rolled segment is durable before the roll.
    PROMPT_RETURN_NOT_OK(active_->Sync());
    ++active_id_;
  }
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.log",
                static_cast<unsigned long long>(active_id_));
  const std::string path =
      (std::filesystem::path(options_.dir) / name).string();
  PROMPT_ASSIGN_OR_RETURN(active_, SegmentWriter::Create(path));
  if (Status st = SyncDir(options_.dir); !st.ok()) {
    PROMPT_LOG(kWarn) << "journal: directory sync failed: " << st.ToString();
  }
  return active_.get();
}

Status JournalWriter::Append(JournalRecordKind kind, uint32_t owner,
                             uint64_t batch_id, const std::string& body) {
  PROMPT_ASSIGN_OR_RETURN(SegmentWriter * segment, ActiveSegment());
  const auto header =
      PayloadHeader(static_cast<uint8_t>(kind), owner, batch_id);
  PROMPT_ASSIGN_OR_RETURN(
      uint64_t offset, segment->Append({header.data(), header.size()}, body));
  (void)offset;
  appended_bytes_ += kRecordHeaderBytes + header.size() + body.size();
  if (options_.fsync == FsyncPolicy::kAlways) {
    PROMPT_RETURN_NOT_OK(segment->Sync());
  }
  return Status::OK();
}

Status JournalWriter::AppendBatchTuples(uint64_t batch_id) {
  const std::string body = EncodeTuples(buffer_);
  buffer_.clear();
  return Append(JournalRecordKind::kBatchTuples, 0, batch_id, body);
}

Status JournalWriter::AppendOutcome(uint32_t owner,
                                    const BatchOutcome& outcome) {
  return Append(JournalRecordKind::kOutcome, owner, outcome.batch_id,
                EncodeOutcome(outcome));
}

Status JournalWriter::AppendSwitch(const JournalSwitch& decision) {
  std::string body;
  PutI32(&body, decision.from);
  PutI32(&body, decision.to);
  body += decision.reason;
  return Append(JournalRecordKind::kSwitch, decision.owner,
                decision.after_batch, body);
}

Status JournalWriter::AppendFault(const JournalFault& fault) {
  std::string body;
  PutU8(&body, fault.point);
  PutU8(&body, fault.kind);
  return Append(JournalRecordKind::kFault, fault.target, fault.batch_id, body);
}

Status JournalWriter::AppendEnv(uint32_t owner, const BatchEnv& env) {
  return Append(JournalRecordKind::kBatchEnv, owner, env.batch_id,
                EncodeEnv(env));
}

Status JournalWriter::Sync() {
  if (active_ == nullptr) return Status::OK();
  return active_->Sync();
}

Status JournalWriter::SyncBatch() {
  if (options_.fsync != FsyncPolicy::kBatch) return Status::OK();
  return Sync();
}

uint64_t JournalWriter::unsynced_bytes() const {
  if (active_ == nullptr) return 0;
  return active_->size() - active_->synced_bytes();
}

// ---- JournalTupleSource ----

JournalTupleSource::JournalTupleSource(std::vector<Tuple> tuples)
    : tuples_(std::move(tuples)) {
  std::unordered_set<KeyId> keys;
  keys.reserve(tuples_.size());
  for (const Tuple& t : tuples_) keys.insert(t.key);
  cardinality_ = keys.size();
}

bool JournalTupleSource::Next(Tuple* out) {
  if (pos_ >= tuples_.size()) return false;
  *out = tuples_[pos_++];
  return true;
}

}  // namespace prompt
