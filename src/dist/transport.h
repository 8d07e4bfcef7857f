// Frame transports for the distributed serving protocol.
//
// A Conn moves whole frames (dist/wire.h) between a coordinator and one
// node. Two implementations:
//
//   * Loopback — an in-process pair of FIFO frame queues, for
//     deterministic tests and single-machine threaded runs (TSan-clean).
//   * FdConn — a byte-stream file descriptor (socketpair/pipe), for
//     node-per-process runs. Frames are delimited by their fixed header;
//     Recv reads the header, validates it, then reads exactly the payload.
//
// Send is safe to call from one thread while Recv runs on another; neither
// end may have two concurrent senders or two concurrent receivers.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dist/wire.h"

namespace spire::dist {

/// One end of a frame pipe.
class Conn {
 public:
  virtual ~Conn() = default;

  /// Sends one encoded frame. Fails once the connection is closed.
  virtual Status Send(const std::vector<std::uint8_t>& frame) = 0;

  /// Receives the next whole frame. On clean end-of-stream sets *eof and
  /// returns OK with `frame` untouched; mid-frame stream ends are errors.
  virtual Status Recv(std::vector<std::uint8_t>* frame, bool* eof) = 0;

  /// Signals end-of-stream to the peer; pending frames still drain.
  /// Idempotent.
  virtual void Close() = 0;
};

/// A connected pair of in-process ends: frames sent on one pop out of the
/// other, FIFO, unbounded (flow control is the protocol's EpochResult window).
std::pair<std::unique_ptr<Conn>, std::unique_ptr<Conn>> MakeLoopbackPair();

/// A Conn over a byte-stream fd (socketpair, pipe pair). Takes ownership
/// of the descriptor and closes it on destruction.
std::unique_ptr<Conn> MakeFdConn(int fd);

/// Encodes and sends one typed frame, counting dist/frames and dist/bytes.
Status SendFrame(Conn* conn, FrameType type,
                 const std::vector<std::uint8_t>& payload);

/// Receives and decodes (validates) one frame; sets *eof on clean stream
/// end. Counts dist/frames and dist/bytes.
Status RecvFrame(Conn* conn, Frame* frame, bool* eof);

}  // namespace spire::dist
