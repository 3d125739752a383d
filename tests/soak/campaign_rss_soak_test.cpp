// Bounded-state soak test for the campaign runner: repeating one campaign
// must not ratchet the process's peak RSS up. Every sweep's simulators and
// traces die with run_campaign, so a campaign repeated twenty times should
// peak where the fifth did.
//
// ru_maxrss is a process-wide high-water mark, so this suite is an
// executable of its own: no earlier test's peak can mask the growth.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/registry.hpp"
#include "util/thread_pool.hpp"

namespace rtdls {
namespace {

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Counts cells and drops the results: only the campaign's own memory is
/// measured. consume() runs on the pool's lanes.
class CountingSink final : public exp::ResultSink {
 public:
  void consume(const exp::Campaign&, const exp::CellResult&) override {
    cells_.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t cells() const { return cells_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> cells_{0};
};

TEST(CampaignSoak, RepeatedCampaignsKeepPeakRssFlat) {
  // The benchmark's paper-scale figures at reduced scale (2 runs, not 5).
  exp::Scale scale;
  scale.runs = 2;
  scale.sim_time = 2'000'000.0;
  std::vector<exp::FigureSpec> figures;
  for (const char* id : {"fig03", "fig04", "fig05", "fig09"}) {
    figures.push_back(exp::find_figure(id, scale));
  }
  const exp::Campaign campaign(figures);
  util::ThreadPool pool(2);
  exp::CampaignOptions options;
  options.pool = &pool;

  long after_fifth = 0;
  for (int repetition = 1; repetition <= 20; ++repetition) {
    CountingSink sink;
    exp::run_campaign(campaign, options, sink);
    ASSERT_EQ(sink.cells(), campaign.cell_count());
    if (repetition == 5) after_fifth = peak_rss_kb();
  }
  const long after_twentieth = peak_rss_kb();
  EXPECT_LE(static_cast<double>(after_twentieth), 1.15 * static_cast<double>(after_fifth))
      << "peak RSS " << after_fifth << " KB after campaign 5, " << after_twentieth
      << " KB after campaign 20";
}

}  // namespace
}  // namespace rtdls
