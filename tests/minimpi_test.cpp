// Tests for the in-process message-passing runtime.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/minimpi.h"

namespace {

using namespace hspec::minimpi;

TEST(MiniMpi, RankAndSizeVisible) {
  std::atomic<int> sum{0};
  run(4, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    sum += comm.rank();
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(MiniMpi, PointToPointTyped) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, 42.5);
    } else {
      const Message m = comm.recv(0, 7);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 7);
      EXPECT_DOUBLE_EQ(m.as<double>(), 42.5);
    }
  });
}

TEST(MiniMpi, VectorPayload) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_vector(1, 1, std::vector<int>{1, 2, 3});
    } else {
      const auto v = comm.recv().as_vector<int>();
      EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(MiniMpi, WildcardsAndTagFiltering) {
  run(3, [](Communicator& comm) {
    if (comm.rank() != 0) {
      comm.send(0, comm.rank(), comm.rank() * 10);
    } else {
      // Receive tag 2 first although tag 1 may arrive earlier.
      const Message m2 = comm.recv(kAnySource, 2);
      EXPECT_EQ(m2.as<int>(), 20);
      const Message m1 = comm.recv(kAnySource, kAnyTag);
      EXPECT_EQ(m1.as<int>(), 10);
    }
  });
}

TEST(MiniMpi, FifoOrderPerChannel) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.send(1, 5, i);
    } else {
      for (int i = 0; i < 100; ++i)
        EXPECT_EQ(comm.recv(0, 5).as<int>(), i);
    }
  });
}

TEST(MiniMpi, IprobeSeesPendingMessage) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 9, 1);
      comm.barrier();
    } else {
      comm.barrier();  // after barrier the message must be there
      EXPECT_TRUE(comm.iprobe(0, 9));
      EXPECT_FALSE(comm.iprobe(0, 8));
      comm.recv(0, 9);
      EXPECT_FALSE(comm.iprobe());
    }
  });
}

TEST(MiniMpi, BarrierSynchronizes) {
  std::atomic<int> phase_counter{0};
  run(8, [&](Communicator& comm) {
    ++phase_counter;
    comm.barrier();
    // All increments happened before anyone passed the barrier.
    EXPECT_EQ(phase_counter.load(), 8);
    comm.barrier();
  });
}

TEST(MiniMpi, BroadcastFromEveryRoot) {
  run(4, [](Communicator& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      const int payload = comm.rank() == root ? root * 100 : -1;
      const int got = comm.bcast(payload, root);
      EXPECT_EQ(got, root * 100);
    }
  });
}

TEST(MiniMpi, ReduceAndAllreduce) {
  run(6, [](Communicator& comm) {
    const double local = comm.rank() + 1.0;  // 1..6
    const double sum = comm.reduce_sum(local, 0);
    if (comm.rank() == 0) EXPECT_DOUBLE_EQ(sum, 21.0);
    const double all = comm.allreduce_sum(local);
    EXPECT_DOUBLE_EQ(all, 21.0);
  });
}

TEST(MiniMpi, ReduceVector) {
  run(3, [](Communicator& comm) {
    const std::vector<double> local{1.0 * comm.rank(), 1.0};
    const auto total = comm.reduce_sum_vector(local, 2);
    if (comm.rank() == 2) {
      ASSERT_EQ(total.size(), 2u);
      EXPECT_DOUBLE_EQ(total[0], 3.0);
      EXPECT_DOUBLE_EQ(total[1], 3.0);
    } else {
      EXPECT_TRUE(total.empty());
    }
  });
}

TEST(MiniMpi, GatherPreservesRankOrder) {
  run(5, [](Communicator& comm) {
    const auto all = comm.gather(comm.rank() * 2, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 5u);
      for (int r = 0; r < 5; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 2);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(MiniMpi, BackToBackCollectivesDoNotInterleave) {
  // Regression test: wildcard receives of consecutive same-kind collectives
  // must not steal each other's contributions.
  run(8, [](Communicator& comm) {
    for (int round = 0; round < 50; ++round) {
      const double s = comm.allreduce_sum(1.0);
      ASSERT_DOUBLE_EQ(s, 8.0) << "round " << round;
    }
  });
}

TEST(MiniMpi, RankExceptionPropagates) {
  EXPECT_THROW(
      run(3,
          [](Communicator& comm) {
            if (comm.rank() == 1) throw std::runtime_error("rank 1 died");
          }),
      std::runtime_error);
}

// A rank that throws aborts the world: a rank already blocked in barrier()
// wakes up and throws WorldAborted, and run() rethrows the original
// exception, not the secondary one.
TEST(MiniMpi, RankExceptionWakesBarrierWaiters) {
  std::atomic<bool> rank0_waiting{false};
  std::atomic<bool> rank0_aborted{false};
  try {
    run(2, [&](Communicator& comm) {
      if (comm.rank() == 0) {
        rank0_waiting.store(true);
        try {
          comm.barrier();
        } catch (const WorldAborted&) {
          rank0_aborted.store(true);
          throw;
        }
      } else {
        while (!rank0_waiting.load()) std::this_thread::yield();
        // Give rank 0 time to block inside the barrier.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::domain_error("rank 1 died");
      }
    });
    FAIL() << "run() returned normally";
  } catch (const std::domain_error& e) {
    EXPECT_EQ(std::string(e.what()), "rank 1 died");
  }
  EXPECT_TRUE(rank0_aborted.load());
}

TEST(MiniMpi, RankExceptionWakesReceiversAndLaterCollectives) {
  std::atomic<int> aborted{0};
  EXPECT_THROW(run(3,
                   [&](Communicator& comm) {
                     if (comm.rank() == 2)
                       throw std::domain_error("rank 2 died");
                     try {
                       if (comm.rank() == 0) comm.recv(2, 7);  // never sent
                       comm.allreduce_sum(1.0);
                     } catch (const WorldAborted&) {
                       aborted.fetch_add(1);
                       throw;
                     }
                   }),
               std::domain_error);
  EXPECT_EQ(aborted.load(), 2);
}

TEST(MiniMpi, InvalidUseThrows) {
  EXPECT_THROW(run(0, [](Communicator&) {}), std::invalid_argument);
  run(1, [](Communicator& comm) {
    EXPECT_THROW(comm.send(5, 0, 1), std::out_of_range);
    EXPECT_THROW(comm.send(-1, 0, 1), std::out_of_range);
  });
}

TEST(MiniMpi, PayloadSizeMismatchDetected) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, 1.0);  // double
    } else {
      const Message m = comm.recv(0, 3);
      EXPECT_THROW(m.as<int>(), std::runtime_error);  // wrong size
      EXPECT_DOUBLE_EQ(m.as<double>(), 1.0);
    }
  });
}

TEST(MiniMpi, ManyRanksStress) {
  // 24 ranks (the paper's node) all-to-one then broadcast back.
  run(24, [](Communicator& comm) {
    const double total = comm.allreduce_sum(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(total, 276.0);  // sum 0..23
  });
}

}  // namespace
