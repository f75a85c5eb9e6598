#include "fleet/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/trace_codec.h"

namespace secddr::fleet::checkpoint {

namespace {

using sim::trace_codec::crc32;
using sim::trace_codec::get_u32;
using sim::trace_codec::get_u64;
using sim::trace_codec::put_u32;
using sim::trace_codec::put_u64;

}  // namespace

std::vector<std::uint8_t> encode(std::uint64_t config_hash,
                                 const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size() +
              kBlockHeaderBytes * (payload.size() / kBlockBytes + 2) +
              kFooterTotalBytes);
  out.resize(kHeaderBytes);
  std::memcpy(out.data(), kMagic, 8);
  put_u32(out.data() + 8, kVersion);
  put_u32(out.data() + 12, 0);
  put_u64(out.data() + 16, config_hash);
  put_u32(out.data() + 24, 0);
  put_u32(out.data() + 28, crc32(out.data(), 28));

  std::uint32_t index = 0;
  for (std::size_t off = 0; off < payload.size(); off += kBlockBytes) {
    const std::size_t n = std::min(kBlockBytes, payload.size() - off);
    std::uint8_t hdr[kBlockHeaderBytes];
    put_u32(hdr, static_cast<std::uint32_t>(n));
    put_u32(hdr + 4, index++);
    put_u32(hdr + 8, crc32(payload.data() + off, n));
    out.insert(out.end(), hdr, hdr + kBlockHeaderBytes);
    out.insert(out.end(), payload.begin() + static_cast<std::ptrdiff_t>(off),
               payload.begin() + static_cast<std::ptrdiff_t>(off + n));
  }

  std::uint8_t total[kFooterTotalBytes];
  put_u64(total, payload.size());
  std::uint8_t foot[kBlockHeaderBytes];
  put_u32(foot, 0);
  put_u32(foot + 4, 0);
  put_u32(foot + 8, crc32(total, kFooterTotalBytes));
  out.insert(out.end(), foot, foot + kBlockHeaderBytes);
  out.insert(out.end(), total, total + kFooterTotalBytes);
  return out;
}

std::vector<std::uint8_t> decode(const std::uint8_t* data, std::size_t n,
                                 const std::string& path,
                                 std::uint64_t* config_hash) {
  if (n < kHeaderBytes)
    throw CheckpointFormatError(path, 0, "truncated header");
  if (std::memcmp(data, kMagic, 8) != 0)
    throw CheckpointFormatError(path, 0, "bad magic");
  if (get_u32(data + 28) != crc32(data, 28))
    throw CheckpointFormatError(path, 28, "header checksum mismatch");
  const std::uint32_t version = get_u32(data + 8);
  if (version != kVersion)
    throw CheckpointFormatError(
        path, 8, "unsupported version " + std::to_string(version));
  if (config_hash) *config_hash = get_u64(data + 16);

  std::vector<std::uint8_t> payload;
  std::size_t off = kHeaderBytes;
  std::uint32_t expect_index = 0;
  for (;;) {
    if (n - off < kBlockHeaderBytes)
      throw CheckpointFormatError(path, off, "truncated block header");
    const std::uint32_t payload_bytes = get_u32(data + off);
    if (payload_bytes == 0) break;  // footer
    if (payload_bytes > kMaxPayloadBytes)
      throw CheckpointFormatError(path, off, "oversized block");
    const std::uint32_t index = get_u32(data + off + 4);
    if (index != expect_index)
      throw CheckpointFormatError(path, off + 4, "block index mismatch");
    ++expect_index;
    const std::uint32_t payload_crc = get_u32(data + off + 8);
    if (n - off - kBlockHeaderBytes < payload_bytes)
      throw CheckpointFormatError(path, off, "truncated block payload");
    const std::uint8_t* body = data + off + kBlockHeaderBytes;
    if (crc32(body, payload_bytes) != payload_crc)
      throw CheckpointFormatError(path, off + 8, "block checksum mismatch");
    payload.insert(payload.end(), body, body + payload_bytes);
    off += kBlockHeaderBytes + payload_bytes;
  }
  // Footer: payload_bytes == 0 already consumed conceptually.
  if (get_u32(data + off + 4) != 0)
    throw CheckpointFormatError(path, off + 4, "malformed footer");
  if (n - off < kBlockHeaderBytes + kFooterTotalBytes)
    throw CheckpointFormatError(path, off, "truncated footer");
  const std::uint8_t* total_field = data + off + kBlockHeaderBytes;
  if (crc32(total_field, kFooterTotalBytes) != get_u32(data + off + 8))
    throw CheckpointFormatError(path, off + 8, "footer checksum mismatch");
  if (get_u64(total_field) != payload.size())
    throw CheckpointFormatError(path, off + kBlockHeaderBytes,
                                "footer total disagrees with blocks");
  if (off + kBlockHeaderBytes + kFooterTotalBytes != n)
    throw CheckpointFormatError(path, off + kBlockHeaderBytes +
                                          kFooterTotalBytes,
                                "trailing bytes after footer");
  return payload;
}

namespace {

/// Full write with EINTR/short-write handling.
bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// fsync of the directory containing `path`, so the rename that put the
/// file there is itself durable (a rename only lives in the directory).
bool fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return false;
  const bool ok = ::fsync(dfd) == 0;
  ::close(dfd);
  return ok;
}

}  // namespace

void write_file(const std::string& path, std::uint64_t config_hash,
                const std::vector<std::uint8_t>& payload,
                WriteObserver* observer) {
  const std::vector<std::uint8_t> bytes = encode(config_hash, payload);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) throw std::runtime_error(tmp + ": cannot create checkpoint");
  auto fail = [&](const std::string& what) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw std::runtime_error(what);
  };
  // Two bounded writes so the torn-tmp observation point sits between
  // real write() calls — the file genuinely holds a strict prefix there.
  const std::size_t half = bytes.size() / 2;
  if (!write_all(fd, bytes.data(), half))
    fail(tmp + ": checkpoint write failed");
  if (observer) observer->on_tmp_partial(tmp);
  if (!write_all(fd, bytes.data() + half, bytes.size() - half))
    fail(tmp + ": checkpoint write failed");
  if (observer) observer->on_tmp_written(tmp);
  // Durability, step 1: the bytes must be on disk before the rename can
  // publish them — otherwise a power cut after the rename leaves a
  // torn file under the committed name.
  if (::fsync(fd) != 0) fail(tmp + ": checkpoint fsync failed");
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error(tmp + ": checkpoint close failed");
  }
  if (observer) observer->on_before_rename(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error(path + ": checkpoint rename failed");
  }
  // Durability, step 2: the rename lives in the directory entry.
  if (!fsync_parent_dir(path))
    throw std::runtime_error(path + ": checkpoint directory fsync failed");
  if (observer) observer->on_published(path);
}

std::string generation_path(const std::string& base, std::uint64_t gen) {
  return base + "." + std::to_string(gen);
}

std::vector<GenerationFile> list_generations(const std::string& base) {
  const std::size_t slash = base.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : base.substr(0, slash);
  const std::string prefix =
      (slash == std::string::npos ? base : base.substr(slash + 1)) + ".";
  std::vector<GenerationFile> out;
  DIR* d = ::opendir(dir.c_str());
  if (!d) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0)
      continue;
    const std::string tail = name.substr(prefix.size());
    if (tail.find_first_not_of("0123456789") != std::string::npos)
      continue;  // .tmp residue etc.
    GenerationFile g;
    g.gen = std::strtoull(tail.c_str(), nullptr, 10);
    g.path = dir + "/" + name;
    out.push_back(std::move(g));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const GenerationFile& a, const GenerationFile& b) {
              return a.gen < b.gen;
            });
  return out;
}

std::uint64_t next_generation(const std::string& base) {
  const std::vector<GenerationFile> gens = list_generations(base);
  return gens.empty() ? 1 : gens.back().gen + 1;
}

void gc_generations(const std::string& base, unsigned keep) {
  const std::vector<GenerationFile> gens = list_generations(base);
  if (keep == 0) keep = 1;
  if (gens.size() <= keep) return;
  for (std::size_t i = 0; i + keep < gens.size(); ++i)
    std::remove(gens[i].path.c_str());
}

std::vector<std::uint8_t> read_file(const std::string& path,
                                    std::uint64_t* config_hash) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error(path + ": cannot open checkpoint");
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + got);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw std::runtime_error(path + ": checkpoint read failed");
  return decode(bytes.data(), bytes.size(), path, config_hash);
}

std::vector<std::uint8_t> encode_system(const sim::System& sys) {
  serial::Sink s;
  sys.save(s);
  return encode(sys.config_hash(), s.take());
}

namespace {

/// The checks and load shared by decode_system and restore_system_file:
/// config hash, System::load, no trailing bytes.
void load_system(sim::System& sys, std::uint64_t hash,
                 const std::vector<std::uint8_t>& payload,
                 const std::string& path) {
  if (hash != sys.config_hash())
    throw CheckpointFormatError(path, 16,
                                "checkpoint was produced by a different "
                                "simulation configuration");
  serial::Source src(payload);
  try {
    sys.load(src);
  } catch (const std::runtime_error& e) {
    throw CheckpointFormatError(
        path, kHeaderBytes + (payload.size() - src.remaining()), e.what());
  }
  if (!src.done())
    throw CheckpointFormatError(path, kHeaderBytes + payload.size(),
                                "trailing bytes in system state");
}

}  // namespace

void decode_system(sim::System& sys, const std::uint8_t* data, std::size_t n,
                   const std::string& path) {
  std::uint64_t hash = 0;
  const std::vector<std::uint8_t> payload = decode(data, n, path, &hash);
  load_system(sys, hash, payload, path);
}

void save_system_file(const sim::System& sys, const std::string& path) {
  serial::Sink s;
  sys.save(s);
  write_file(path, sys.config_hash(), s.take());
}

void restore_system_file(sim::System& sys, const std::string& path) {
  std::uint64_t hash = 0;
  const std::vector<std::uint8_t> payload = read_file(path, &hash);
  load_system(sys, hash, payload, path);
}

std::vector<std::uint8_t> encode_result(const sim::RunResult& r) {
  serial::Sink s;
  serial::put(s, r);
  return s.take();
}

}  // namespace secddr::fleet::checkpoint
