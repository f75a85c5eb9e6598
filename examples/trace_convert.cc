// Trace file converter / inspector for the two sim trace formats.
//
//   trace_convert <input> <output> [--block-records N]
//       Converts between the legacy text format and the binary
//       trace_codec format; the direction is inferred from the input
//       (binary input -> text output, text input -> binary output).
//       Both directions stream record-at-a-time, so converting a
//       multi-gigabyte trace needs only block-sized memory.
//
//   trace_convert --stats <input>
//       Prints record counts, read/write mix, instruction coverage,
//       address range, and bytes/record for either format.
//
//   trace_convert --selftest
//       Round-trips a generated trace through both formats in a temp
//       directory and exits non-zero on any mismatch (CI smoke).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "sim/file_trace.h"
#include "sim/stream_trace.h"
#include "sim/trace_codec.h"

namespace {

using secddr::sim::TraceRecord;

int usage() {
  std::fprintf(stderr,
               "usage: trace_convert <input> <output> [--block-records N]\n"
               "       trace_convert --stats <input>\n"
               "       trace_convert --selftest\n");
  return 2;
}

std::uint64_t file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n > 0 ? static_cast<std::uint64_t>(n) : 0;
}

int stats(const std::string& path) {
  const bool binary = secddr::sim::is_binary_trace(path);
  auto src = secddr::sim::open_trace(path);
  std::uint64_t records = 0, writes = 0, instructions = 0;
  std::uint64_t min_addr = ~0ull, max_addr = 0;
  TraceRecord r;
  while (src->next(r)) {
    ++records;
    if (r.is_write) ++writes;
    instructions += r.gap + 1;  // gap non-memory ops + the access itself
    if (r.addr < min_addr) min_addr = r.addr;
    if (r.addr > max_addr) max_addr = r.addr;
  }
  const std::uint64_t bytes = file_bytes(path);
  std::printf("file:          %s\n", path.c_str());
  std::printf("format:        %s\n",
              binary ? "binary (secddr trace v1)" : "text");
  std::printf("file bytes:    %" PRIu64 "\n", bytes);
  std::printf("records:       %" PRIu64 "\n", records);
  if (records == 0) return 0;
  std::printf("reads/writes:  %" PRIu64 " / %" PRIu64 " (%.1f%% writes)\n",
              records - writes, writes, 100.0 * writes / records);
  std::printf("instructions:  %" PRIu64 " (%.1f per record)\n", instructions,
              static_cast<double>(instructions) / records);
  std::printf("address range: 0x%" PRIx64 " .. 0x%" PRIx64 "\n", min_addr,
              max_addr);
  std::printf("bytes/record:  %.2f\n", static_cast<double>(bytes) / records);
  return 0;
}

int convert(const std::string& in, const std::string& out,
            std::uint32_t block_records) {
  const bool binary_in = secddr::sim::is_binary_trace(in);
  auto src = secddr::sim::open_trace(in);
  std::uint64_t records = 0;
  TraceRecord r;
  if (binary_in) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "trace_convert: cannot create %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f, "# secddr trace: <gap> <R|W> <hex-address>\n");
    while (src->next(r)) {
      std::fprintf(f, "%u %c 0x%llx\n", r.gap, r.is_write ? 'W' : 'R',
                   static_cast<unsigned long long>(r.addr));
      ++records;
    }
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "trace_convert: write failed on %s\n", out.c_str());
      return 1;
    }
  } else {
    secddr::sim::TraceWriter writer(out, block_records);
    while (src->next(r)) {
      writer.append(r);
      ++records;
    }
    writer.close();
  }
  std::printf("%" PRIu64 " records: %s (%s) -> %s (%s)\n", records,
              in.c_str(), binary_in ? "binary" : "text", out.c_str(),
              binary_in ? "text" : "binary");
  return 0;
}

int selftest() {
  const char* tmp = std::getenv("TMPDIR");
  const std::string base = std::string(tmp && *tmp ? tmp : "/tmp") +
                           "/secddr_trace_convert_selftest";
  const std::string bin = base + ".strace";
  const std::string txt = base + ".txt";
  const std::string bin2 = base + ".2.strace";

  std::vector<TraceRecord> records;
  secddr::Xoshiro256 rng(20260729);
  secddr::Addr addr = 0;
  for (int i = 0; i < 20000; ++i) {
    addr += (rng.next() % (1u << 20)) - (1u << 19);  // mixed-sign deltas
    records.push_back({static_cast<std::uint32_t>(rng.next() % 500),
                       rng.chance(0.3), addr});
  }

  {
    secddr::sim::TraceWriter w(bin, /*block_records=*/257);
    for (const auto& rec : records) w.append(rec);
    w.close();
  }
  if (convert(bin, txt, 257) != 0) return 1;
  if (convert(txt, bin2, 63) != 0) return 1;

  for (const std::string& path : {bin, txt, bin2}) {
    auto src = secddr::sim::open_trace(path);
    TraceRecord r;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!src->next(r) || r.gap != records[i].gap ||
          r.is_write != records[i].is_write || r.addr != records[i].addr) {
        std::fprintf(stderr, "selftest: mismatch at record %zu of %s\n", i,
                     path.c_str());
        return 1;
      }
    }
    if (src->next(r)) {
      std::fprintf(stderr, "selftest: trailing records in %s\n", path.c_str());
      return 1;
    }
  }
  std::remove(bin.c_str());
  std::remove(txt.c_str());
  std::remove(bin2.c_str());
  std::printf("selftest OK (%zu records, binary->text->binary)\n",
              records.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && args[0] == "--selftest") return selftest();
    if (args.size() == 2 && args[0] == "--stats") return stats(args[1]);
    std::uint32_t block_records = secddr::sim::trace_codec::kDefaultBlockRecords;
    if (args.size() == 4 && args[2] == "--block-records") {
      block_records = secddr::parse_or_exit<std::uint32_t>("--block-records",
                                                           args[3].c_str());
      if (block_records == 0) return usage();
      args.resize(2);
    }
    if (args.size() == 2 && args[0][0] != '-') return convert(args[0], args[1], block_records);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_convert: %s\n", e.what());
    return 1;
  }
}
