#include "dist/transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include "obs/registry.h"

namespace spire::dist {

namespace {

struct TransportInstruments {
  obs::Counter* frames;
  obs::Counter* bytes;
  obs::Counter* frames_by_type[kNumFrameTypes];
  obs::Counter* bytes_by_type[kNumFrameTypes];
};

const TransportInstruments* GetInstruments() {
  if (!obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const TransportInstruments instruments = [&registry] {
    TransportInstruments out;
    out.frames = registry.GetCounter("dist", "frames");
    out.bytes = registry.GetCounter("dist", "bytes");
    for (int i = 0; i < kNumFrameTypes; ++i) {
      const std::string suffix = ToString(static_cast<FrameType>(i));
      out.frames_by_type[i] = registry.GetCounter("dist", "frames_" + suffix);
      out.bytes_by_type[i] = registry.GetCounter("dist", "bytes_" + suffix);
    }
    return out;
  }();
  return &instruments;
}

/// Counts one frame into the totals and its type's breakdown, so
/// dist/frames == sum(dist/frames_*) and likewise for bytes (asserted in
/// tests/dist_test.cc).
void CountFrame(FrameType type, std::size_t bytes) {
  if (const TransportInstruments* obs = GetInstruments()) {
    obs->frames->Add(1);
    obs->bytes->Add(bytes);
    const auto index = static_cast<std::size_t>(type);
    if (index < kNumFrameTypes) {
      obs->frames_by_type[index]->Add(1);
      obs->bytes_by_type[index]->Add(bytes);
    }
  }
}

/// One direction of a loopback pair.
struct LoopbackQueue {
  std::mutex mu;
  std::condition_variable ready;
  std::deque<std::vector<std::uint8_t>> frames;
  bool closed = false;
};

class LoopbackConn final : public Conn {
 public:
  LoopbackConn(std::shared_ptr<LoopbackQueue> send,
               std::shared_ptr<LoopbackQueue> recv)
      : send_(std::move(send)), recv_(std::move(recv)) {}

  ~LoopbackConn() override { Close(); }

  Status Send(const std::vector<std::uint8_t>& frame) override {
    {
      std::lock_guard<std::mutex> lock(send_->mu);
      if (send_->closed) {
        return Status::Internal("send on closed connection");
      }
      send_->frames.push_back(frame);
    }
    send_->ready.notify_one();
    return Status::OK();
  }

  Status Recv(std::vector<std::uint8_t>* frame, bool* eof) override {
    std::unique_lock<std::mutex> lock(recv_->mu);
    recv_->ready.wait(lock,
                      [&] { return !recv_->frames.empty() || recv_->closed; });
    if (recv_->frames.empty()) {
      *eof = true;
      return Status::OK();
    }
    *frame = std::move(recv_->frames.front());
    recv_->frames.pop_front();
    return Status::OK();
  }

  void Close() override {
    for (const std::shared_ptr<LoopbackQueue>& queue : {send_, recv_}) {
      {
        std::lock_guard<std::mutex> lock(queue->mu);
        queue->closed = true;
      }
      queue->ready.notify_all();
    }
  }

 private:
  std::shared_ptr<LoopbackQueue> send_;
  std::shared_ptr<LoopbackQueue> recv_;
};

class FdConn final : public Conn {
 public:
  explicit FdConn(int fd) : fd_(fd) {}

  ~FdConn() override { Close(); }

  Status Send(const std::vector<std::uint8_t>& frame) override {
    const int fd = fd_.load();
    if (fd < 0) return Status::Internal("send on closed connection");
    const std::uint8_t* data = frame.data();
    std::size_t left = frame.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("frame write failed: ") +
                                std::strerror(errno));
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    return Status::OK();
  }

  Status Recv(std::vector<std::uint8_t>* frame, bool* eof) override {
    std::uint8_t header[kFrameHeaderBytes];
    bool at_start = true;
    SPIRE_RETURN_NOT_OK(ReadFully(header, sizeof(header), &at_start));
    if (at_start) {
      *eof = true;
      return Status::OK();
    }
    Result<FrameHeader> parsed = ParseFrameHeader(header, sizeof(header));
    if (!parsed.ok()) return parsed.status();
    frame->resize(kFrameHeaderBytes + parsed.value().payload_bytes);
    std::memcpy(frame->data(), header, kFrameHeaderBytes);
    bool unused = false;
    return ReadFully(frame->data() + kFrameHeaderBytes,
                     parsed.value().payload_bytes, &unused);
  }

  void Close() override {
    // Thread-safe and idempotent: an abort may close the connection while
    // another thread blocks in read(); shutdown() wakes that read before
    // the descriptor goes away (no-op with ENOTSOCK on plain pipes).
    const int fd = fd_.exchange(-1);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }

 private:
  /// Reads exactly `size` bytes. A stream end before the first byte sets
  /// *clean_eof (when it arrives true); a later one is a truncation error.
  Status ReadFully(std::uint8_t* data, std::size_t size, bool* clean_eof) {
    const int fd = fd_.load();
    if (fd < 0) {
      if (*clean_eof) return Status::OK();
      return Status::Corruption("connection closed mid-frame");
    }
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::read(fd, data + got, size - got);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("frame read failed: ") +
                                std::strerror(errno));
      }
      if (n == 0) {
        if (got == 0 && *clean_eof) return Status::OK();
        return Status::Corruption("connection closed mid-frame");
      }
      got += static_cast<std::size_t>(n);
      *clean_eof = false;
    }
    *clean_eof = false;
    return Status::OK();
  }

  std::atomic<int> fd_;
};

}  // namespace

std::pair<std::unique_ptr<Conn>, std::unique_ptr<Conn>> MakeLoopbackPair() {
  auto forward = std::make_shared<LoopbackQueue>();
  auto backward = std::make_shared<LoopbackQueue>();
  return {std::make_unique<LoopbackConn>(forward, backward),
          std::make_unique<LoopbackConn>(backward, forward)};
}

std::unique_ptr<Conn> MakeFdConn(int fd) {
  return std::make_unique<FdConn>(fd);
}

Status SendFrame(Conn* conn, FrameType type,
                 const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = EncodeFrame(type, payload);
  CountFrame(type, frame.size());
  return conn->Send(frame);
}

Status RecvFrame(Conn* conn, Frame* frame, bool* eof) {
  std::vector<std::uint8_t> bytes;
  *eof = false;
  SPIRE_RETURN_NOT_OK(conn->Recv(&bytes, eof));
  if (*eof) return Status::OK();
  Result<Frame> decoded = DecodeFrame(bytes);
  if (!decoded.ok()) return decoded.status();
  // Counted after decode so the type breakdown is trustworthy (a frame
  // that fails validation is not traffic of any type).
  CountFrame(decoded.value().type, bytes.size());
  *frame = std::move(decoded.value());
  return Status::OK();
}

}  // namespace spire::dist
