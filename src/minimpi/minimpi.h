#pragma once
// minimpi: an in-process message-passing runtime with MPI semantics.
//
// SUBSTITUTION NOTE (DESIGN.md §2): the paper wraps APEC in MPI and runs 24
// ranks on one node. This environment has no MPI installation, so ranks are
// std::threads with per-rank mailboxes; the API mirrors the MPI subset the
// paper's wrapper needs: point-to-point send/recv, barrier, broadcast,
// reductions, and gather. Because all the paper's ranks share one physical
// node and communicate with the scheduler through POSIX shared memory,
// threads-with-mailboxes preserves the communication topology exactly.

#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace hspec::minimpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> payload;

  template <class T>
  T as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (payload.size() != sizeof(T))
      throw std::runtime_error("minimpi: message size mismatch");
    T value;
    std::memcpy(&value, payload.data(), sizeof(T));
    return value;
  }

  template <class T>
  std::vector<T> as_vector() const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (payload.size() % sizeof(T) != 0)
      throw std::runtime_error("minimpi: message size not a multiple of T");
    std::vector<T> out(payload.size() / sizeof(T));
    std::memcpy(out.data(), payload.data(), payload.size());
    return out;
  }
};

class World;  // shared state of all ranks

/// Thrown by a blocking call (recv, barrier and the collectives built on
/// them) once another rank of the world has thrown: the world is aborted,
/// and run() rethrows that rank's exception, not this one.
class WorldAborted : public std::runtime_error {
 public:
  WorldAborted()
      : std::runtime_error("minimpi: world aborted by another rank's "
                           "exception") {}
};

/// A rank's handle to the world — the MPI_Comm analogue. One per rank,
/// usable only from that rank's thread.
class Communicator {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  /// Blocking point-to-point send (buffered: never deadlocks on itself).
  void send_bytes(int dest, int tag, const void* data, std::size_t bytes);
  template <class T>
  void send(int dest, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, &value, sizeof(T));
  }
  template <class T>
  void send_vector(int dest, int tag, const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, values.data(), values.size() * sizeof(T));
  }

  /// Blocking receive; kAnySource / kAnyTag wildcards supported.
  Message recv(int source = kAnySource, int tag = kAnyTag);

  /// Non-blocking probe: true if a matching message is queued.
  bool iprobe(int source = kAnySource, int tag = kAnyTag) const;

  void barrier();

  /// Broadcast `value` from root to every rank (collective).
  template <class T>
  T bcast(const T& value, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out = value;
    bcast_bytes(&out, sizeof(T), root);
    return out;
  }

  /// Sum-reduce a double to root (others receive 0 contribution back only
  /// at root); allreduce returns the sum on every rank.
  double reduce_sum(double local, int root);
  double allreduce_sum(double local);

  /// Element-wise sum-reduce of equal-length vectors to root. Non-root
  /// ranks get an empty vector.
  std::vector<double> reduce_sum_vector(const std::vector<double>& local,
                                        int root);

  /// Gather one T from each rank to root (rank order). Non-root: empty.
  template <class T>
  std::vector<T> gather(const T& value, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> out(static_cast<std::size_t>(size()));
    gather_bytes(&value, sizeof(T), out.data(), root);
    if (rank_ != root) out.clear();
    return out;
  }

 private:
  friend class World;
  friend void run(int, const std::function<void(Communicator&)>&);
  Communicator(World* world, int rank) : world_(world), rank_(rank) {}
  void bcast_bytes(void* data, std::size_t bytes, int root);
  void gather_bytes(const void* src, std::size_t bytes, void* dst, int root);
  /// Collectives must run in the same order on every rank (MPI semantics);
  /// the shared counter sequences their tags so that back-to-back
  /// collectives with wildcard receives can never interleave.
  int next_collective_tag(int kind) noexcept;

  World* world_;
  int rank_;
  int collective_seq_ = 0;
};

/// Launch `nranks` ranks running `rank_main` and join them. The first rank
/// to throw aborts the world: ranks blocked in (or later entering) recv or
/// barrier throw WorldAborted, and after the join run() rethrows that first
/// exception.
void run(int nranks, const std::function<void(Communicator&)>& rank_main);

}  // namespace hspec::minimpi
