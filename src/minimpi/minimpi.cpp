#include "minimpi/minimpi.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <thread>

#include "util/thread_annotations.h"

namespace hspec::minimpi {

namespace {

struct Mailbox {
  util::Mutex mu;
  std::condition_variable_any cv;
  std::deque<Message> queue HSPEC_GUARDED_BY(mu);
};

}  // namespace

/// Shared state of one minimpi world.
class World {
 public:
  explicit World(int nranks) : nranks_(nranks), mailboxes_(nranks) {
    for (auto& mb : mailboxes_) mb = std::make_unique<Mailbox>();
  }

  int size() const noexcept { return nranks_; }

  void deliver(int dest, Message msg) {
    Mailbox& mb = *mailboxes_.at(static_cast<std::size_t>(dest));
    {
      util::MutexLock lock(mb.mu);
      mb.queue.push_back(std::move(msg));
    }
    mb.cv.notify_all();
  }

  static bool matches(const Message& m, int source, int tag) noexcept {
    return (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }

  Message receive(int rank, int source, int tag) {
    Mailbox& mb = *mailboxes_.at(static_cast<std::size_t>(rank));
    util::MutexLock lock(mb.mu);
    while (true) {
      for (auto it = mb.queue.begin(); it != mb.queue.end(); ++it) {
        if (matches(*it, source, tag)) {
          Message msg = std::move(*it);
          mb.queue.erase(it);
          return msg;
        }
      }
      throw_if_aborted();
      mb.cv.wait(lock);
    }
  }

  bool probe(int rank, int source, int tag) const {
    Mailbox& mb = *mailboxes_.at(static_cast<std::size_t>(rank));
    util::MutexLock lock(mb.mu);
    for (const Message& m : mb.queue)
      if (matches(m, source, tag)) return true;
    return false;
  }

  void barrier() {
    util::MutexLock lock(barrier_mu_);
    const std::uint64_t gen = barrier_generation_;
    if (++barrier_count_ == nranks_) {
      barrier_count_ = 0;
      ++barrier_generation_;
      barrier_cv_.notify_all();
    } else {
      // Manual loop (not the predicate overload): the analysis sees the
      // guarded read in this scope, where the capability is provably held.
      while (barrier_generation_ == gen) {
        throw_if_aborted();
        barrier_cv_.wait(lock);
      }
    }
  }

  /// First rank exception: poison the world and wake every blocked rank.
  /// Each waiter checks the flag while holding the mutex it waits on, and
  /// the flag is set before this takes a mailbox mutex (and under the
  /// barrier mutex), so no wakeup is lost.
  void abort(std::exception_ptr cause) {
    {
      util::MutexLock lock(barrier_mu_);
      if (!cause_) cause_ = std::move(cause);
      aborted_.store(true, std::memory_order_release);
      barrier_cv_.notify_all();
    }
    for (auto& mb : mailboxes_) {
      util::MutexLock lock(mb->mu);
      mb->cv.notify_all();
    }
  }

  /// The exception that aborted the world (null if none did).
  std::exception_ptr cause() {
    util::MutexLock lock(barrier_mu_);
    return cause_;
  }

 private:
  void throw_if_aborted() const {
    if (aborted_.load(std::memory_order_acquire)) throw WorldAborted();
  }

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  // Set once by abort(); each waiter reads it under its own wait mutex.
  std::atomic<bool> aborted_{false};

  util::Mutex barrier_mu_;  // the barrier state and the abort cause
  std::condition_variable_any barrier_cv_;
  int barrier_count_ HSPEC_GUARDED_BY(barrier_mu_) = 0;
  std::uint64_t barrier_generation_ HSPEC_GUARDED_BY(barrier_mu_) = 0;
  std::exception_ptr cause_ HSPEC_GUARDED_BY(barrier_mu_);
};

int Communicator::size() const noexcept { return world_->size(); }

void Communicator::send_bytes(int dest, int tag, const void* data,
                              std::size_t bytes) {
  if (dest < 0 || dest >= size())
    throw std::out_of_range("minimpi: destination rank out of range");
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload.resize(bytes);
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);
  world_->deliver(dest, std::move(msg));
}

Message Communicator::recv(int source, int tag) {
  return world_->receive(rank_, source, tag);
}

bool Communicator::iprobe(int source, int tag) const {
  return world_->probe(rank_, source, tag);
}

void Communicator::barrier() { world_->barrier(); }

namespace {
// Internal collective tags: base | kind | sequence. User tags must stay
// below kCollectiveBase.
constexpr int kCollectiveBase = 1 << 28;
constexpr int kSeqMod = 1 << 20;
constexpr int kKindBcast = 0;
constexpr int kKindReduce = 1;
constexpr int kKindGather = 2;
}  // namespace

int Communicator::next_collective_tag(int kind) noexcept {
  const int seq = collective_seq_++ % kSeqMod;
  return kCollectiveBase + kind * kSeqMod + seq;
}

void Communicator::bcast_bytes(void* data, std::size_t bytes, int root) {
  const int tag = next_collective_tag(kKindBcast);
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send_bytes(r, tag, data, bytes);
  } else {
    Message msg = recv(root, tag);
    if (msg.payload.size() != bytes)
      throw std::runtime_error("minimpi: bcast size mismatch");
    std::memcpy(data, msg.payload.data(), bytes);
  }
}

double Communicator::reduce_sum(double local, int root) {
  const int tag = next_collective_tag(kKindReduce);
  if (rank_ == root) {
    double acc = local;
    for (int r = 0; r < size() - 1; ++r)
      acc += recv(kAnySource, tag).as<double>();
    return acc;
  }
  send(root, tag, local);
  return 0.0;
}

double Communicator::allreduce_sum(double local) {
  const double total = reduce_sum(local, 0);
  double out = rank_ == 0 ? total : 0.0;
  return bcast(out, 0);
}

std::vector<double> Communicator::reduce_sum_vector(
    const std::vector<double>& local, int root) {
  const int tag = next_collective_tag(kKindReduce);
  if (rank_ == root) {
    std::vector<double> acc = local;
    for (int r = 0; r < size() - 1; ++r) {
      const auto part = recv(kAnySource, tag).as_vector<double>();
      if (part.size() != acc.size())
        throw std::runtime_error("minimpi: reduce vector size mismatch");
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += part[i];
    }
    return acc;
  }
  send_vector(root, tag, local);
  return {};
}

void Communicator::gather_bytes(const void* src, std::size_t bytes, void* dst,
                                int root) {
  const int tag = next_collective_tag(kKindGather);
  if (rank_ == root) {
    auto* out = static_cast<std::byte*>(dst);
    std::memcpy(out + static_cast<std::size_t>(root) * bytes, src, bytes);
    for (int r = 0; r < size() - 1; ++r) {
      Message msg = recv(kAnySource, tag);
      if (msg.payload.size() != bytes)
        throw std::runtime_error("minimpi: gather size mismatch");
      std::memcpy(out + static_cast<std::size_t>(msg.source) * bytes,
                  msg.payload.data(), bytes);
    }
  } else {
    send_bytes(root, tag, src, bytes);
  }
}

void run(int nranks, const std::function<void(Communicator&)>& rank_main) {
  if (nranks <= 0) throw std::invalid_argument("minimpi::run: nranks <= 0");
  World world(nranks);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &rank_main, r] {
      try {
        Communicator comm(&world, r);
        rank_main(comm);
      } catch (...) {
        world.abort(std::current_exception());
      }
    });
  }
  for (auto& t : threads) t.join();
  if (std::exception_ptr cause = world.cause()) std::rethrow_exception(cause);
}

}  // namespace hspec::minimpi
