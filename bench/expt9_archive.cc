// Expt 9 (beyond the paper): the persistent block-compressed archive
// (src/store) versus the flat 26-byte SPEV record file, plus the format-v2
// codec shootout.
//
// Reports, for a level-2 warehouse trace:
//   - bytes per event and size relative to the flat encoding for both
//     block codecs (target: the varint archive at most half the flat
//     file);
//   - write and full-scan throughput for the flat file and both codecs;
//   - a 10%-of-epochs time-range scan: blocks decoded versus total blocks
//     (the block directory must skip a proportional share) and the scan's
//     event yield;
//   - the epoch-column decode shootout: ScanEpochColumn over
//     {varint, bitpack} x {buffered, mmap}. The bitpack codec skips the
//     leading columns structurally (one width byte per 128-value
//     miniblock) where varint must walk every byte, and the mmap path
//     decodes zero-copy with once-per-reader payload validation; together
//     they must beat the seed reader configuration (buffered varint) by
//     >= kEpochSpeedupFloor x — asserted hard, and written to
//     BENCH_archive.json for tools/bench_compare.py to track. The floor's
//     baseline is a frozen copy of that reader's epoch scan (namespace
//     seed_reader below), not the current buffered-varint arm: a faster
//     shared varint decoder speeds that arm too and would fail the floor
//     with no regression anywhere.
//
//   ./expt9_archive [full=true] [block_events=N] [<SimConfig key>=value ...]
//
// An unknown, malformed or out-of-range key fails by name.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/wire.h"
#include "compress/serde.h"
#include "eval/table.h"
#include "sim/simulator.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"
#include "store/crc32.h"
#include "store/format.h"
#include "store/varint.h"

using namespace spire;
using namespace spire::bench;

namespace {

/// Hard floor on bitpack/varint epoch-column scan rate (mmap transport).
constexpr double kEpochSpeedupFloor = 5.0;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Runs the pipeline over the trace and returns its output stream.
EventStream GenerateTrace(const SimConfig& config) {
  auto sim = WarehouseSimulator::Create(config);
  if (!sim.ok()) {
    std::fprintf(stderr, "simulator: %s\n", sim.status().ToString().c_str());
    std::exit(1);
  }
  WarehouseSimulator& s = *sim.value();
  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  SpirePipeline pipeline(&s.registry(), options);
  EventStream events;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &events);
  }
  pipeline.Finish(s.current_epoch() + 1, &events);
  return events;
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// One archive written with a specific codec: size + write/scan rates.
struct CodecRun {
  std::string path;
  std::uint64_t bytes = 0;
  double write_s = 0.0;
  double scan_s = 0.0;
  std::size_t blocks = 0;
};

CodecRun WriteAndScan(const std::string& path, BlockCodec codec,
                      std::size_t block_events, const EventStream& events) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(IndexPathFor(path), ec);
  ArchiveOptions options;
  options.block_events = block_events;
  options.codec = codec;

  CodecRun run;
  run.path = path;
  auto t0 = std::chrono::steady_clock::now();
  auto writer = ArchiveWriter::Open(path, options);
  Check(writer.status(), "archive open");
  Check(writer.value()->Append(events), "archive append");
  Check(writer.value()->Close(), "archive close");
  run.write_s = Seconds(t0);
  run.bytes = writer.value()->segment_bytes();

  auto reader = ArchiveReader::Open(path);
  Check(reader.status(), "archive reader open");
  run.blocks = reader.value().num_blocks();
  t0 = std::chrono::steady_clock::now();
  auto scanned = reader.value().ScanAll();
  Check(scanned.status(), "archive scan");
  run.scan_s = Seconds(t0);
  if (scanned.value() != events) {
    std::fprintf(stderr, "%s round trip mismatch\n", ToString(codec));
    std::exit(1);
  }
  return run;
}

/// Best-of-`reps` ScanEpochColumn wall time; the decoded column must match
/// `expect` on every rep (a fast-but-wrong decode is not a result).
double BestEpochScanSeconds(const ArchiveReader& reader, int reps,
                            const std::vector<Epoch>& expect) {
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto epochs = reader.ScanEpochColumn();
    const double elapsed = Seconds(t0);
    Check(epochs.status(), "epoch-column scan");
    if (epochs.value() != expect) {
      std::fprintf(stderr, "epoch-column scan diverged from full decode\n");
      std::exit(1);
    }
    best = std::min(best, elapsed);
  }
  return best;
}

/// The seed reader configuration's epoch-column scan, frozen: buffered
/// reads with a payload CRC per block and per scan, and the strict
/// one-byte-at-a-time varint decode, as the reader stood before any
/// varint fast path. Only the floor's baseline runs it; nothing else may,
/// so changes to the shared store code cannot move the baseline.
namespace seed_reader {

Result<std::uint64_t> GetVarint64(const std::uint8_t* in, std::size_t size,
                                  std::size_t* offset) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (*offset >= size) {
      return Status::Corruption("truncated varint");
    }
    const std::uint8_t byte = in[(*offset)++];
    if (i == kMaxVarintBytes - 1 && byte > 1) {
      return Status::Corruption("varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      if (byte == 0 && i > 0) {
        return Status::Corruption("non-canonical varint padding");
      }
      return value;
    }
  }
  return Status::Corruption("varint longer than 10 bytes");
}

Status SkipVarint64(const std::uint8_t* in, std::size_t size,
                    std::size_t* offset) {
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (*offset >= size) return Status::Corruption("truncated varint");
    if ((in[(*offset)++] & 0x80) == 0) return Status::OK();
  }
  return Status::Corruption("varint longer than 10 bytes");
}

Status DecodeBlockEpochs(const std::uint8_t* payload,
                         std::size_t payload_size, std::uint32_t count,
                         std::vector<Epoch>* out) {
  if (payload_size < count) {
    return Status::Corruption("block payload shorter than its type column");
  }
  std::size_t offset = count;  // Types carry no epoch data; jump them.
  const std::size_t base = out->size();
  out->resize(base + count);
  auto* deltas = reinterpret_cast<std::uint64_t*>(out->data() + base);
  for (std::uint32_t i = 0; i < 2 * count; ++i) {
    SPIRE_RETURN_NOT_OK(SkipVarint64(payload, payload_size, &offset));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    auto value = GetVarint64(payload, payload_size, &offset);
    if (!value.ok()) return value.status();
    deltas[i] = value.value();
  }
  std::uint64_t prev = 0;
  std::uint64_t sign = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    prev += static_cast<std::uint64_t>(ZigzagDecode(deltas[i]));
    sign |= prev;
    deltas[i] = prev;
  }
  if ((sign >> 63) != 0) {
    return Status::Corruption("negative event timestamp in block");
  }
  return Status::OK();
}

/// The whole epoch column of a varint segment, block by block from the
/// file.
Result<std::vector<Epoch>> ScanEpochColumn(const ArchiveReader& reader) {
  std::ifstream in(reader.path(), std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + reader.path());
  const std::uint16_t version = reader.format_version();
  const std::size_t header_bytes = BlockHeaderBytes(version);
  std::vector<std::uint8_t> buffer;
  std::vector<Epoch> epochs;
  epochs.reserve(reader.num_events());
  for (const BlockMeta& meta : reader.blocks()) {
    buffer.resize(header_bytes);
    in.seekg(static_cast<std::streamoff>(meta.offset));
    in.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(header_bytes));
    if (!in.good()) return Status::Corruption("truncated block header");
    auto parsed = ParseBlockHeader(buffer.data(), version);
    if (!parsed.ok()) return parsed.status();
    const BlockHeader header = parsed.value();
    if (header.codec != BlockCodec::kVarint) {
      return Status::InvalidArgument("the seed reader reads varint only");
    }
    buffer.resize(header_bytes + header.payload_size);
    in.read(reinterpret_cast<char*>(buffer.data() + header_bytes),
            static_cast<std::streamsize>(header.payload_size));
    if (!in.good()) return Status::Corruption("truncated block payload");
    const std::uint8_t* payload = buffer.data() + header_bytes;
    if (Crc32(payload, header.payload_size) != header.payload_crc) {
      return Status::Corruption("block payload checksum mismatch");
    }
    SPIRE_RETURN_NOT_OK(DecodeBlockEpochs(payload, header.payload_size,
                                          header.count, &epochs));
  }
  return epochs;
}

}  // namespace seed_reader

/// Best-of-`reps` wall time of the frozen seed reader's epoch scan, checked
/// like BestEpochScanSeconds.
double BestSeedScanSeconds(const ArchiveReader& reader, int reps,
                           const std::vector<Epoch>& expect) {
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto epochs = seed_reader::ScanEpochColumn(reader);
    const double elapsed = Seconds(t0);
    Check(epochs.status(), "seed-reader epoch-column scan");
    if (epochs.value() != expect) {
      std::fprintf(stderr, "seed-reader epoch scan diverged from full decode\n");
      std::exit(1);
    }
    best = std::min(best, elapsed);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(
      argc, argv,
      {BoolOption("full", false), IntOption("block_events", 4096, /*min=*/1)});
  const SimConfig base =
      ApplySimOverrides(args, PaperOutputConfig(args.Bool("full")));
  const std::size_t block_events =
      static_cast<std::size_t>(args.Int("block_events"));

  PrintHeader("Expt 9: persistent archive vs flat event file",
              "beyond the paper; store/ subsystem");

  const EventStream events = GenerateTrace(base);
  const double n = static_cast<double>(events.size());
  std::printf("trace: %zu events over %lld epochs\n\n", events.size(),
              static_cast<long long>(base.duration_epochs));

  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string flat_path = dir + "/expt9_flat.spev";
  const std::string varint_path = dir + "/expt9_varint.sparc";
  const std::string bitpack_path = dir + "/expt9_bitpack.sparc";
  std::error_code ec;
  std::filesystem::remove(flat_path, ec);

  // --- Flat SPEV file -------------------------------------------------------
  auto t0 = std::chrono::steady_clock::now();
  Check(WriteEventFile(flat_path, events), "flat write");
  const double flat_write_s = Seconds(t0);
  const auto flat_bytes = std::filesystem::file_size(flat_path);

  t0 = std::chrono::steady_clock::now();
  auto flat_read = ReadEventFile(flat_path);
  Check(flat_read.status(), "flat read");
  const double flat_read_s = Seconds(t0);
  if (flat_read.value() != events) {
    std::fprintf(stderr, "flat round trip mismatch\n");
    return 1;
  }

  // --- Block-compressed archive, both codecs --------------------------------
  const CodecRun varint =
      WriteAndScan(varint_path, BlockCodec::kVarint, block_events, events);
  const CodecRun bitpack =
      WriteAndScan(bitpack_path, BlockCodec::kBitpack, block_events, events);

  TextTable table({"format", "bytes", "bytes/event", "vs flat", "write Mev/s",
                   "scan Mev/s"});
  table.AddRow({"flat SPEV", std::to_string(flat_bytes),
                TextTable::Num(static_cast<double>(flat_bytes) / n, 2), "1.00",
                TextTable::Num(n / flat_write_s / 1e6, 2),
                TextTable::Num(n / flat_read_s / 1e6, 2)});
  for (const CodecRun* run : {&varint, &bitpack}) {
    table.AddRow({run == &varint ? "archive varint" : "archive bitpack",
                  std::to_string(run->bytes),
                  TextTable::Num(static_cast<double>(run->bytes) / n, 2),
                  TextTable::Num(static_cast<double>(run->bytes) /
                                     static_cast<double>(flat_bytes),
                                 2),
                  TextTable::Num(n / run->write_s / 1e6, 2),
                  TextTable::Num(n / run->scan_s / 1e6, 2)});
  }
  table.Print();
  std::printf("archive: %zu blocks of <= %zu events; payload record = %zu "
              "flat bytes\n\n",
              varint.blocks, block_events, kEventWireBytes);

  // --- 10%-of-epochs range scan --------------------------------------------
  auto reader = ArchiveReader::Open(varint_path);
  Check(reader.status(), "archive reader open");
  Epoch lo_epoch = kInfiniteEpoch, hi_epoch = 0;
  for (const Event& event : events) {
    const Epoch primary = PrimaryEpoch(event);
    if (primary < lo_epoch) lo_epoch = primary;
    if (primary > hi_epoch) hi_epoch = primary;
  }
  const Epoch span = hi_epoch - lo_epoch;
  const Epoch lo = lo_epoch + span * 45 / 100;
  const Epoch hi = lo_epoch + span * 55 / 100;
  const std::size_t touched = reader.value().BlocksInRange(lo, hi);
  t0 = std::chrono::steady_clock::now();
  auto ranged = reader.value().ScanRange(lo, hi);
  Check(ranged.status(), "range scan");
  const double range_s = Seconds(t0);
  std::printf("range scan [%lld, %lld] (10%% of %lld epochs):\n",
              static_cast<long long>(lo), static_cast<long long>(hi),
              static_cast<long long>(span));
  std::printf("  blocks decoded: %zu of %zu (%.1f%%), events: %zu "
              "(%.1f%% of stream), %.2f ms\n\n",
              touched, reader.value().num_blocks(),
              100.0 * static_cast<double>(touched) /
                  static_cast<double>(reader.value().num_blocks()),
              ranged.value().size(), 100.0 * ranged.value().size() / n,
              range_s * 1e3);

  // --- Epoch-column decode shootout ----------------------------------------
  // Repetitions scale inversely with the trace so quick mode still measures
  // something (best-of over >= 8 scans, ~2M decoded epochs total per cell).
  const int reps = static_cast<int>(
      std::max<double>(8.0, 2e6 / std::max(n, 1.0)));
  std::vector<Epoch> expect;
  expect.reserve(events.size());
  for (const Event& event : events) expect.push_back(PrimaryEpoch(event));

  struct Cell {
    const char* codec;
    const char* transport;
    bool mapped = false;
    double best_s = 0.0;
  };
  std::vector<Cell> cells;
  for (const CodecRun* run : {&varint, &bitpack}) {
    for (bool use_mmap : {false, true}) {
      ReaderOptions reader_options;
      reader_options.use_mmap = use_mmap;
      auto r = ArchiveReader::Open(run->path, reader_options);
      Check(r.status(), "shootout reader open");
      Cell cell;
      cell.codec = run == &varint ? "varint" : "bitpack";
      cell.transport = use_mmap ? "mmap" : "buffered";
      cell.mapped = r.value().mapped();
      cell.best_s = BestEpochScanSeconds(r.value(), reps, expect);
      cells.push_back(cell);
    }
  }

  // The seed reader configuration (before format v2 the reader was
  // buffered and varint-only), frozen: the floor's baseline.
  double seed_s = 0.0;
  {
    ReaderOptions reader_options;
    reader_options.use_mmap = false;
    auto r = ArchiveReader::Open(varint.path, reader_options);
    Check(r.status(), "seed-reader open");
    seed_s = BestSeedScanSeconds(r.value(), reps, expect);
  }

  TextTable shootout({"codec", "transport", "mapped", "best ms",
                      "Mepochs/s"});
  shootout.AddRow({"varint (seed reader, frozen)", "buffered", "no",
                   TextTable::Num(seed_s * 1e3, 3),
                   TextTable::Num(n / seed_s / 1e6, 2)});
  for (const Cell& cell : cells) {
    shootout.AddRow({cell.codec, cell.transport, cell.mapped ? "yes" : "no",
                     TextTable::Num(cell.best_s * 1e3, 3),
                     TextTable::Num(n / cell.best_s / 1e6, 2)});
  }
  shootout.Print();

  // The gated ratio is new fast path vs the frozen seed reader: cells[3]
  // (bitpack/mmap) is what this subsystem buys. The same-transport ratio
  // (cells[3]/cells[1]) isolates the codec alone and is reported but not
  // floored — the shared zigzag/prefix pass bounds it tighter — as is the
  // ratio to the current buffered-varint arm (cells[0]).
  const double baseline_rate = n / seed_s;
  const double varint_mmap_rate = n / cells[1].best_s;
  const double bitpack_mmap_rate = n / cells[3].best_s;
  const double speedup = bitpack_mmap_rate / baseline_rate;
  const double codec_speedup = bitpack_mmap_rate / varint_mmap_rate;
  std::printf("epoch-column speedup: %.2fx vs the frozen seed reader "
              "(buffered varint; floor %.0fx), %.2fx vs today's buffered "
              "varint, %.2fx vs varint on mmap\n",
              speedup, kEpochSpeedupFloor,
              bitpack_mmap_rate * cells[0].best_s / n, codec_speedup);
  if (speedup < kEpochSpeedupFloor) {
    std::fprintf(stderr,
                 "FAIL: bitpack/mmap epoch-column scan is %.2fx the frozen "
                 "seed reader's, below the %.0fx floor\n",
                 speedup, kEpochSpeedupFloor);
    return 1;
  }

  BenchReport report("archive");
  report.Add("events", n);
  report.Add("flat_bytes", static_cast<double>(flat_bytes));
  report.Add("varint_bytes", static_cast<double>(varint.bytes));
  report.Add("bitpack_bytes", static_cast<double>(bitpack.bytes));
  report.Add("seed_reader_epochs_per_sec", baseline_rate);
  report.Add("varint_buffered_epochs_per_sec", n / cells[0].best_s);
  report.Add("varint_mmap_epochs_per_sec", varint_mmap_rate);
  report.Add("bitpack_buffered_epochs_per_sec", n / cells[2].best_s);
  report.Add("bitpack_mmap_epochs_per_sec", bitpack_mmap_rate);
  report.Add("bitpack_epoch_speedup", speedup);
  report.Add("bitpack_epoch_codec_speedup", codec_speedup);
  report.Add("range_scan_seconds", range_s);
  Check(report.Write(), "report write");

  std::filesystem::remove(flat_path, ec);
  for (const std::string& path : {varint_path, bitpack_path}) {
    std::filesystem::remove(path, ec);
    std::filesystem::remove(IndexPathFor(path), ec);
  }
  return 0;
}
