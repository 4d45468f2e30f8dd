#include "common/options.h"

#include <cstdlib>

namespace paradise {

namespace {
bool IsPowerOfTwo(size_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Status StorageOptions::Validate() const {
  if (page_size < 512 || !IsPowerOfTwo(page_size)) {
    return Status::InvalidArgument(
        "page_size must be a power of two >= 512, got " +
        std::to_string(page_size));
  }
  if (buffer_pool_pages < 8) {
    return Status::InvalidArgument("buffer_pool_pages must be >= 8, got " +
                                   std::to_string(buffer_pool_pages));
  }
  if (pages_per_extent == 0) {
    return Status::InvalidArgument("pages_per_extent must be > 0");
  }
  if (read_only && allow_overwrite) {
    return Status::InvalidArgument(
        "read_only and allow_overwrite are mutually exclusive");
  }
  if (read_retry_limit > 64) {
    return Status::InvalidArgument("read_retry_limit must be <= 64, got " +
                                   std::to_string(read_retry_limit));
  }
  if (pool_shards == 0) {
    return Status::InvalidArgument("pool_shards must be >= 1");
  }
  if (pool_shards > 256) {
    return Status::InvalidArgument("pool_shards must be <= 256, got " +
                                   std::to_string(pool_shards));
  }
  if (io_pool_threads > 64) {
    return Status::InvalidArgument("io_pool_threads must be <= 64, got " +
                                   std::to_string(io_pool_threads));
  }
  return Status::OK();
}

std::string_view ChunkFormatToString(ChunkFormat format) {
  switch (format) {
    case ChunkFormat::kDense:
      return "dense";
    case ChunkFormat::kOffsetCompressed:
      return "offset-compressed";
    case ChunkFormat::kAuto:
      return "auto";
    case ChunkFormat::kLzwDense:
      return "lzw-dense";
    case ChunkFormat::kDiffSequence:
      return "diff-sequence";
  }
  return "unknown";
}

bool ChunkFormatFromString(std::string_view name, ChunkFormat* out) {
  if (name == "dense") {
    *out = ChunkFormat::kDense;
  } else if (name == "offset" || name == "offset-compressed") {
    *out = ChunkFormat::kOffsetCompressed;
  } else if (name == "auto") {
    *out = ChunkFormat::kAuto;
  } else if (name == "lzw" || name == "lzw-dense") {
    *out = ChunkFormat::kLzwDense;
  } else if (name == "diffseq" || name == "diff-sequence") {
    *out = ChunkFormat::kDiffSequence;
  } else {
    return false;
  }
  return true;
}

Result<std::optional<ChunkFormat>> ForcedChunkFormatFromEnv() {
  const char* env = std::getenv("PARADISE_FORCE_CHUNK_FORMAT");
  if (env == nullptr || env[0] == '\0') return std::optional<ChunkFormat>();
  ChunkFormat format;
  if (!ChunkFormatFromString(env, &format)) {
    return Status::InvalidArgument(
        "PARADISE_FORCE_CHUNK_FORMAT='" + std::string(env) +
        "' is not a chunk format (dense, offset, auto, lzw, diffseq)");
  }
  return std::optional<ChunkFormat>(format);
}

Status ArrayOptions::Validate() const {
  if (default_chunk_extent == 0) {
    return Status::InvalidArgument("default_chunk_extent must be > 0");
  }
  if (static_cast<uint8_t>(chunk_format) > kMaxChunkFormat) {
    return Status::NotSupported(
        "unknown chunk format " +
        std::to_string(static_cast<unsigned>(chunk_format)) +
        " (max supported is " + std::to_string(kMaxChunkFormat) + ")");
  }
  return Status::OK();
}

}  // namespace paradise
