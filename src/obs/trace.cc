// Tracer implementation.

#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace mv3c::obs {

std::atomic<bool> Tracer::enabled_{false};

namespace {

struct TraceBuffer {
  std::unique_ptr<TraceRecord[]> ring{new TraceRecord[kTraceCapacity]};
  uint64_t next = 0;  // monotone event count; slot = next % kTraceCapacity
  uint32_t tid = 0;
};

// Registry of every thread's buffer. Buffers are never freed while the
// process runs (threads exit but their events remain drainable); Reset()
// drops them all for test isolation.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<TraceBuffer>>* g_buffers = nullptr;
uint32_t g_next_tid = 0;
// Bumped by Reset() to invalidate TLS pointers; atomic because recording
// threads check it outside g_buffers_mu.
std::atomic<uint64_t> g_generation{0};

struct TlsSlot {
  TraceBuffer* buffer = nullptr;
  uint64_t generation = 0;
};
thread_local TlsSlot tls_slot;

TraceBuffer* AcquireBuffer() {
  std::lock_guard<std::mutex> g(g_buffers_mu);
  if (g_buffers == nullptr) {
    g_buffers = new std::vector<std::unique_ptr<TraceBuffer>>();
  }
  auto buf = std::make_unique<TraceBuffer>();
  buf->tid = g_next_tid++;
  TraceBuffer* raw = buf.get();
  g_buffers->push_back(std::move(buf));
  tls_slot.buffer = raw;
  tls_slot.generation = g_generation.load(std::memory_order_relaxed);
  return raw;
}

}  // namespace

void Tracer::RecordSlow(TraceEvent kind, uint64_t id) {
  TraceBuffer* buf = tls_slot.buffer;
  if (MV3C_UNLIKELY(buf == nullptr ||
                    tls_slot.generation !=
                        g_generation.load(std::memory_order_relaxed))) {
    buf = AcquireBuffer();
  }
  TraceRecord& r = buf->ring[buf->next % kTraceCapacity];
  r.tsc = TscNow();
  r.id = id;
  r.tid = buf->tid;
  r.kind = kind;
  ++buf->next;
}

size_t Tracer::Drain(std::vector<TraceRecord>* out) {
  out->clear();
  std::lock_guard<std::mutex> g(g_buffers_mu);
  if (g_buffers == nullptr) return 0;
  for (auto& buf : *g_buffers) {
    const uint64_t n = buf->next;
    if (n <= kTraceCapacity) {
      out->insert(out->end(), buf->ring.get(), buf->ring.get() + n);
    } else {
      // Wrapped: the oldest surviving event sits at the write cursor.
      const uint64_t cur = n % kTraceCapacity;
      out->insert(out->end(), buf->ring.get() + cur,
                  buf->ring.get() + kTraceCapacity);
      out->insert(out->end(), buf->ring.get(), buf->ring.get() + cur);
    }
    buf->next = 0;
  }
  // Per-buffer runs are already chronological; a stable sort interleaves
  // threads without reordering any one thread's events.
  std::stable_sort(out->begin(), out->end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.tsc < b.tsc;
                   });
  return out->size();
}

void Tracer::WriteChromeJson(std::FILE* f) {
  std::vector<TraceRecord> events;
  Drain(&events);
  const double ticks_per_us = TscTicksPerNs() * 1000.0;
  const uint64_t base = events.empty() ? 0 : events.front().tsc;
  std::fputs("[", f);
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceRecord& e = events[i];
    std::fprintf(
        f,
        "%s\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
        "\"tid\":%u,\"ts\":%.3f,\"args\":{\"id\":%llu}}",
        i == 0 ? "" : ",", TraceEventName(e.kind), e.tid,
        static_cast<double>(e.tsc - base) / ticks_per_us,
        static_cast<unsigned long long>(e.id));
  }
  std::fputs("\n]\n", f);
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> g(g_buffers_mu);
  if (g_buffers != nullptr) g_buffers->clear();
  g_next_tid = 0;
  g_generation.fetch_add(1, std::memory_order_relaxed);
}

void EnableTraceFromEnv() {
  const char* path = std::getenv("MV3C_TRACE");
  if (path != nullptr && path[0] != '\0') Tracer::SetEnabled(true);
}

void DumpTraceIfRequested() {
  const char* path = std::getenv("MV3C_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open trace file %s\n", path);
    return;
  }
  Tracer::WriteChromeJson(f);
  std::fclose(f);
  std::fprintf(stderr,
               "obs: wrote Chrome trace to %s "
               "(open in chrome://tracing or ui.perfetto.dev)\n",
               path);
}

}  // namespace mv3c::obs
