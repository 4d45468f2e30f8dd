#include "ingest/delta_store.h"

#include <cstring>

#include "common/coding.h"

namespace paradise {

namespace {
constexpr char kMagic[4] = {'P', 'D', 'L', 'T'};
constexpr uint8_t kVersion = 1;
}  // namespace

uint64_t DeltaGeneration::total_cells() const {
  uint64_t n = 0;
  for (const auto& per_chunk : measures) {
    for (const auto& [chunk_no, cells] : per_chunk) n += cells.size();
  }
  return n;
}

std::string DeltaGeneration::Serialize() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersion));
  AppendFixed64(&out, seq);
  AppendFixed32(&out, static_cast<uint32_t>(measures.size()));
  for (const auto& per_chunk : measures) {
    AppendFixed32(&out, static_cast<uint32_t>(per_chunk.size()));
    for (const auto& [chunk_no, cells] : per_chunk) {
      AppendFixed64(&out, chunk_no);
      AppendFixed32(&out, static_cast<uint32_t>(cells.size()));
      for (const ChunkEntry& e : cells) {
        AppendFixed32(&out, e.offset);
        AppendFixed64(&out, static_cast<uint64_t>(e.value));
      }
    }
  }
  return out;
}

Result<DeltaGeneration> DeltaGeneration::Deserialize(std::string_view blob) {
  const char* p = blob.data();
  const char* end = blob.data() + blob.size();
  auto need = [&](size_t n) { return p + n <= end; };
  if (!need(17) || std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("object is not a delta generation");
  }
  const uint8_t version = static_cast<uint8_t>(p[4]);
  if (version != kVersion) {
    return Status::NotSupported("delta generation version " +
                                std::to_string(version) +
                                " is newer than this build supports (max " +
                                std::to_string(kVersion) + ")");
  }
  DeltaGeneration gen;
  gen.seq = DecodeFixed64(p + 5);
  const uint32_t num_measures = DecodeFixed32(p + 13);
  p += 17;
  gen.measures.resize(num_measures);
  for (uint32_t m = 0; m < num_measures; ++m) {
    if (!need(4)) return Status::Corruption("delta generation truncated");
    const uint32_t num_chunks = DecodeFixed32(p);
    p += 4;
    for (uint32_t c = 0; c < num_chunks; ++c) {
      if (!need(12)) return Status::Corruption("delta generation truncated");
      const uint64_t chunk_no = DecodeFixed64(p);
      const uint32_t count = DecodeFixed32(p + 8);
      p += 12;
      if (!need(static_cast<size_t>(count) * 12)) {
        return Status::Corruption("delta generation truncated");
      }
      std::vector<ChunkEntry>& cells = gen.measures[m][chunk_no];
      cells.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        ChunkEntry e;
        e.offset = DecodeFixed32(p);
        e.value = static_cast<int64_t>(DecodeFixed64(p + 4));
        p += 12;
        cells.push_back(e);
      }
    }
  }
  if (p != end) {
    return Status::Corruption("delta generation has trailing bytes");
  }
  return gen;
}

std::vector<std::shared_ptr<const DeltaOverlay>> FoldGeneration(
    const std::vector<std::shared_ptr<const DeltaOverlay>>& overlays,
    DeltaGeneration gen) {
  std::vector<std::shared_ptr<const DeltaOverlay>> out = overlays;
  for (size_t m = 0; m < gen.measures.size() && m < out.size(); ++m) {
    std::shared_ptr<DeltaOverlay> folded;
    for (auto& [chunk_no, cells] : gen.measures[m]) {
      if (cells.empty()) continue;
      if (folded == nullptr) {
        folded = out[m] == nullptr ? std::make_shared<DeltaOverlay>()
                                   : std::make_shared<DeltaOverlay>(*out[m]);
      }
      folded->Apply(chunk_no, std::move(cells));
    }
    if (folded != nullptr) out[m] = std::move(folded);
  }
  return out;
}

}  // namespace paradise
