#include "wal/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/failpoint.h"
#include "common/macros.h"

namespace mv3c::wal {

namespace {

bool WriteFully(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<size_t>(w);
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < out->size()) {
    const ssize_t r = ::read(fd, out->data() + got, out->size() - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  ::close(fd);
  out->resize(got);
  return true;
}

bool FsyncDir(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return false;
  const bool ok = ::fsync(dfd) == 0;
  ::close(dfd);
  return ok;
}

/// Writes `bytes` to `path` (create/truncate) and fsyncs the file.
bool WriteFileDurably(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = WriteFully(fd, bytes.data(), bytes.size());
  if (ok && failpoint::Evaluate(failpoint::Site::kCkptFsyncFail)) ok = false;
  if (ok) ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Removes a checkpoint directory and everything in it (flat layout: the
/// checkpointer only ever creates regular files inside).
void RemoveCkptDir(const std::string& dir_path) {
  DIR* d = ::opendir(dir_path.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      const std::string n = e->d_name;
      if (n == "." || n == "..") continue;
      (void)::unlink((dir_path + "/" + n).c_str());
    }
    ::closedir(d);
  }
  (void)::rmdir(dir_path.c_str());
}

}  // namespace

Checkpointer::Checkpointer(const CheckpointConfig& config, LogManager* lm,
                           std::function<CheckpointSources()> sources)
    : config_(config), lm_(lm), sources_(std::move(sources)) {
  MV3C_CHECK(!config_.dir.empty());
  MV3C_CHECK(lm_ != nullptr);
  MV3C_CHECK(config_.retain >= 2);
  metrics_.RegisterCounter("ckpt_rounds", &ckpt_rounds_);
  metrics_.RegisterCounter("ckpt_records", &ckpt_records_);
  metrics_.RegisterCounter("ckpt_bytes", &ckpt_bytes_);
  metrics_.RegisterCounter("ckpt_failures", &ckpt_failures_);
  metrics_.RegisterCounter("ckpt_wal_segments_truncated",
                           &ckpt_wal_segments_truncated_);
  metrics_.RegisterCounter("ckpt_retired", &ckpt_retired_);
  // Resume numbering after whatever a previous incarnation left behind;
  // its newest *valid* manifest also seeds the truncation ladder.
  const std::vector<uint64_t> seqs = ListManifestSeqs(config_.dir);
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    Manifest m;
    if (ReadManifest(config_.dir, *it, &m)) {
      prev_cut_epoch_ = m.header.cut_epoch;
      published_seq_.store(*it, std::memory_order_release);
      break;
    }
  }
  if (!seqs.empty()) next_seq_ = seqs.back() + 1;
  if (config_.interval_ms > 0) {
    thread_ = std::thread([this] { BackgroundLoop(); });
  }
}

Checkpointer::~Checkpointer() { Stop(); }

void Checkpointer::Stop() {
  {
    std::lock_guard<std::mutex> g(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Checkpointer::BackgroundLoop() {
  std::unique_lock<std::mutex> lk(stop_mu_);
  while (!stop_requested_) {
    stop_cv_.wait_for(lk, std::chrono::milliseconds(config_.interval_ms),
                      [&] { return stop_requested_; });
    if (stop_requested_) return;
    lk.unlock();
    const bool ok = TakeCheckpoint();
    lk.lock();
    if (!ok) return;  // frozen: failed_ is set, no further rounds
  }
}

bool Checkpointer::TakeCheckpoint() {
  std::lock_guard<std::mutex> g(round_mu_);
  if (failed()) return false;
  obs::ScopedPhaseTimer timer(&metrics_, obs::Phase::kCheckpoint);
  if (!RunRound()) {
    ++ckpt_failures_;
    failed_.store(true, std::memory_order_release);
    return false;
  }
  ++ckpt_rounds_;
  return true;
}

bool Checkpointer::RunRound() {
  // Order is the whole correctness argument (DESIGN §5g): read the durable
  // epoch FIRST, then open the snapshot. Every commit the snapshot misses
  // serializes after the pin, so its redo tag exceeds D — truncating
  // epochs <= D can never drop a commit the checkpoint failed to capture.
  if (lm_->crashed()) return false;
  const uint64_t cut_epoch = lm_->durable_epoch();
  CheckpointSources sources = sources_();
  const uint64_t seq = next_seq_;

  const std::string dir_path = config_.dir + "/" + CkptDirName(seq);
  RemoveCkptDir(dir_path);  // debris from a crashed attempt at this seq
  bool ok = ::mkdir(dir_path.c_str(), 0755) == 0;

  std::vector<ManifestTableEntry> entries;
  entries.reserve(sources.tables.size());
  uint64_t checkpoint_ts = 0;
  for (const CheckpointTableSource& src : sources.tables) {
    if (!ok) break;
    ManifestTableEntry e{};
    ok = WriteTableSegment(dir_path, src, seq, &e);
    if (ok) {
      entries.push_back(e);
      checkpoint_ts = std::max(checkpoint_ts, e.scan_ts);
    }
  }
  if (sources.release) sources.release();
  if (!ok) return false;
  if (!FsyncDir(dir_path)) return false;

  // The scan raced commits past the cut; every one it partially observed
  // must be fully replayable from the retained suffix before the manifest
  // becomes loadable, so the log is flushed through the scan's end. A
  // crashed log means the suffix guarantee is gone: abort unpublished.
  if (!lm_->FlushNow()) return false;

  if (failpoint::Evaluate(failpoint::Site::kCkptCrashBeforeManifest)) {
    return false;
  }
  if (!PublishManifest(seq, entries, cut_epoch)) return false;
  published_seq_.store(seq, std::memory_order_release);
  ++next_seq_;

  if (failpoint::Evaluate(
          failpoint::Site::kCkptCrashAfterManifestBeforeTruncate)) {
    return false;
  }

  // Truncate to the PREVIOUS checkpoint's cut: both retained manifests
  // keep their complete WAL suffixes, so recovery can always fall back one
  // checkpoint without dangling. Per partition this only ever deletes a
  // stream's oldest segments, never its tail, so the min-over-streams
  // durable cut recovery computes (DESIGN §5i) is unaffected.
  if (config_.truncate_wal && prev_cut_epoch_ > 0) {
    ckpt_wal_segments_truncated_ +=
        lm_->TruncateSegmentsBefore(prev_cut_epoch_);
  }
  RetireOldCheckpoints(seq);
  prev_cut_epoch_ = cut_epoch;
  return true;
}

bool Checkpointer::WriteTableSegment(const std::string& dir_path,
                                     const CheckpointTableSource& src,
                                     uint64_t seq,
                                     ManifestTableEntry* entry) {
  const std::string path = dir_path + "/" + CkptTableFileName(src.table_id);
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;

  const CkptSegmentHeader sh = MakeCkptSegmentHeader(src.table_id, seq);
  std::vector<uint8_t> chunk(reinterpret_cast<const uint8_t*>(&sh),
                             reinterpret_cast<const uint8_t*>(&sh) +
                                 sizeof(sh));
  uint32_t file_crc = 0;
  uint64_t file_bytes = 0;
  uint64_t record_count = 0;
  bool ok = true;

  auto flush_chunk = [&] {
    if (chunk.empty() || !ok) return;
    if (failpoint::Evaluate(failpoint::Site::kCkptCrashMidSegment)) {
      // Torn segment write: half the pending bytes reach the disk, then
      // the "machine" dies. No manifest will reference this file; recovery
      // must never load it.
      (void)WriteFully(fd, chunk.data(), chunk.size() / 2);
      ok = false;
      return;
    }
    if (!WriteFully(fd, chunk.data(), chunk.size())) {
      ok = false;
      return;
    }
    file_crc = crc32::Extend(file_crc, chunk.data(), chunk.size());
    file_bytes += chunk.size();
    chunk.clear();
  };

  constexpr size_t kChunkBytes = 1 << 20;
  src.scan([&](const RecordHeader& h, const void* key, const void* val) {
    if (!ok) return;
    AppendRecord(chunk, h, key, val);
    ++record_count;
    if (chunk.size() >= kChunkBytes) flush_chunk();
  });
  flush_chunk();
  if (ok && failpoint::Evaluate(failpoint::Site::kCkptFsyncFail)) ok = false;
  if (ok) ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return false;

  entry->table_id = src.table_id;
  entry->kind = static_cast<uint8_t>(src.kind);
  entry->scan_ts = src.scan_ts;
  entry->record_count = record_count;
  entry->file_bytes = file_bytes;
  entry->file_crc = file_crc;
  ckpt_records_ += record_count;
  ckpt_bytes_ += file_bytes;
  return true;
}

bool Checkpointer::PublishManifest(
    uint64_t seq, const std::vector<ManifestTableEntry>& entries,
    uint64_t cut_epoch) {
  ManifestHeader h{};
  std::memcpy(h.magic, kManifestMagic, sizeof(h.magic));
  h.format_version = kCkptFormatVersion;
  h.n_tables = static_cast<uint32_t>(entries.size());
  h.checkpoint_seq = seq;
  h.cut_epoch = cut_epoch;
  for (const ManifestTableEntry& e : entries) {
    h.checkpoint_ts = std::max(h.checkpoint_ts, e.scan_ts);
  }
  h.manifest_crc = ManifestCrc(h, entries.data(), h.n_tables);

  std::vector<uint8_t> bytes(sizeof(h) +
                             entries.size() * sizeof(ManifestTableEntry));
  std::memcpy(bytes.data(), &h, sizeof(h));
  if (!entries.empty()) {
    std::memcpy(bytes.data() + sizeof(h), entries.data(),
                entries.size() * sizeof(ManifestTableEntry));
  }

  // tmp + fsync + rename + dir fsync: the manifest appears atomically or
  // not at all — there is no observable half-written manifest state.
  const std::string final_path = config_.dir + "/" + ManifestName(seq);
  const std::string tmp_path = final_path + ".tmp";
  if (!WriteFileDurably(tmp_path, bytes)) return false;
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) return false;
  return FsyncDir(config_.dir);
}

void Checkpointer::RetireOldCheckpoints(uint64_t newest_seq) {
  if (newest_seq <= config_.retain) return;
  const uint64_t retire_through = newest_seq - config_.retain;
  for (uint64_t seq : ListManifestSeqs(config_.dir)) {
    if (seq > retire_through) break;
    // Manifest first: once it is gone, recovery can no longer select this
    // checkpoint, so deleting its data directory cannot strand a reader.
    (void)::unlink((config_.dir + "/" + ManifestName(seq)).c_str());
    RemoveCkptDir(config_.dir + "/" + CkptDirName(seq));
    ++ckpt_retired_;
  }
  (void)FsyncDir(config_.dir);
}

std::vector<uint64_t> ListManifestSeqs(const std::string& dir) {
  std::vector<uint64_t> seqs;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return seqs;
  while (dirent* e = ::readdir(d)) {
    const std::string n = e->d_name;
    unsigned long long seq = 0;
    char extra = 0;
    if (std::sscanf(n.c_str(), "MANIFEST-%6llu%c", &seq, &extra) == 1) {
      seqs.push_back(seq);
    }
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

bool ReadManifest(const std::string& dir, uint64_t seq, Manifest* out) {
  std::vector<uint8_t> bytes;
  if (!ReadWholeFile(dir + "/" + ManifestName(seq), &bytes)) return false;
  if (bytes.size() < sizeof(ManifestHeader)) return false;
  ManifestHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (std::memcmp(h.magic, kManifestMagic, sizeof(h.magic)) != 0 ||
      h.format_version != kCkptFormatVersion || h.checkpoint_seq != seq) {
    return false;
  }
  const size_t want =
      sizeof(ManifestHeader) +
      static_cast<size_t>(h.n_tables) * sizeof(ManifestTableEntry);
  if (bytes.size() != want) return false;
  std::vector<ManifestTableEntry> entries(h.n_tables);
  if (h.n_tables != 0) {
    std::memcpy(entries.data(), bytes.data() + sizeof(ManifestHeader),
                entries.size() * sizeof(ManifestTableEntry));
  }
  if (ManifestCrc(h, entries.data(), h.n_tables) != h.manifest_crc) {
    return false;
  }
  out->header = h;
  out->tables = std::move(entries);
  return true;
}

bool LoadCkptSegment(const std::string& dir, uint64_t seq,
                     const ManifestTableEntry& entry,
                     std::vector<uint8_t>* buf,
                     std::vector<RecordView>* records) {
  const std::string path =
      dir + "/" + CkptDirName(seq) + "/" + CkptTableFileName(entry.table_id);
  if (!ReadWholeFile(path, buf)) return false;
  if (buf->size() != entry.file_bytes) return false;
  if (crc32::Compute(buf->data(), buf->size()) != entry.file_crc) {
    return false;
  }
  if (buf->size() < sizeof(CkptSegmentHeader)) return false;
  CkptSegmentHeader sh;
  std::memcpy(&sh, buf->data(), sizeof(sh));
  if (!ValidCkptSegmentHeader(sh) || sh.table_id != entry.table_id ||
      sh.checkpoint_seq != seq) {
    return false;
  }

  records->clear();
  records->reserve(entry.record_count);
  size_t off = sizeof(CkptSegmentHeader);
  while (off < buf->size()) {
    if (buf->size() - off < sizeof(RecordHeader)) return false;
    RecordView v;
    std::memcpy(&v.header, buf->data() + off, sizeof(RecordHeader));
    const size_t len = sizeof(RecordHeader) +
                       static_cast<size_t>(v.header.key_bytes) +
                       v.header.val_bytes;
    if (buf->size() - off < len) return false;
    if (!RecordCrcOk(buf->data() + off, v.header)) return false;
    if (v.header.table_id != entry.table_id) return false;
    v.key = buf->data() + off + sizeof(RecordHeader);
    v.val = v.key + v.header.key_bytes;
    records->push_back(v);
    off += len;
  }
  return records->size() == entry.record_count;
}

}  // namespace mv3c::wal
