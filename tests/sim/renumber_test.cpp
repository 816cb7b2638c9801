// renumber_links (sim/oracle_sim.hpp) against its specification: a hop's
// compact id is the lower_bound rank of its global id in the sorted,
// deduplicated id list; a compact id's dimension is its global id mod
// dims; the peak is the longest run of one id.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "sim/oracle_sim.hpp"

namespace hyperpath {
namespace {

CompactLinks reference_renumber(const std::vector<std::uint64_t>& glinks,
                                int dims) {
  std::vector<std::uint64_t> uniq = glinks;
  std::sort(uniq.begin(), uniq.end());
  CompactLinks out;
  std::uint64_t run = 0;
  for (std::size_t i = 0; i < uniq.size(); ++i) {
    run = (i > 0 && uniq[i] == uniq[i - 1]) ? run + 1 : 1;
    out.peak_congestion = std::max(out.peak_congestion, run);
  }
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  for (const std::uint64_t g : glinks) {
    out.link_of_hop.push_back(static_cast<std::uint32_t>(
        std::lower_bound(uniq.begin(), uniq.end(), g) - uniq.begin()));
  }
  for (const std::uint64_t g : uniq) {
    out.dim_of.push_back(static_cast<std::uint8_t>(g % dims));
  }
  return out;
}

void expect_matches_reference(const std::vector<std::uint64_t>& glinks,
                              int dims) {
  const CompactLinks want = reference_renumber(glinks, dims);
  const CompactLinks got = renumber_links(glinks, dims);
  EXPECT_EQ(got.link_of_hop, want.link_of_hop);
  EXPECT_EQ(got.dim_of, want.dim_of);
  EXPECT_EQ(got.peak_congestion, want.peak_congestion);
}

/// The largest global id of Q_30: tail 2^30 − 1, dimension 29.
constexpr std::uint64_t kQ30MaxGlink = ((std::uint64_t{1} << 30) - 1) * 30 + 29;

TEST(RenumberLinks, EmptyInput) {
  const CompactLinks got = renumber_links({}, 24);
  EXPECT_TRUE(got.link_of_hop.empty());
  EXPECT_TRUE(got.dim_of.empty());
  EXPECT_EQ(got.peak_congestion, 0u);
}

TEST(RenumberLinks, SingleHop) {
  const CompactLinks got = renumber_links({kQ30MaxGlink}, 30);
  EXPECT_EQ(got.link_of_hop, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(got.dim_of, (std::vector<std::uint8_t>{29}));
  EXPECT_EQ(got.peak_congestion, 1u);
  expect_matches_reference({0}, 1);
}

TEST(RenumberLinks, AllEqualIds) {
  expect_matches_reference(std::vector<std::uint64_t>(1000, 12345), 24);
  expect_matches_reference(std::vector<std::uint64_t>(7, 0), 8);
  const CompactLinks got =
      renumber_links(std::vector<std::uint64_t>(300, kQ30MaxGlink), 30);
  EXPECT_EQ(got.dim_of.size(), 1u);
  EXPECT_EQ(got.peak_congestion, 300u);
}

TEST(RenumberLinks, StrictlyDescendingIds) {
  std::vector<std::uint64_t> glinks;
  for (std::uint64_t g = 5000; g-- > 0;) glinks.push_back(g * 7919);
  expect_matches_reference(glinks, 16);
  const CompactLinks got = renumber_links(glinks, 16);
  EXPECT_EQ(got.link_of_hop.front(), 4999u);
  EXPECT_EQ(got.link_of_hop.back(), 0u);
}

TEST(RenumberLinks, IdsPast32Bits) {
  std::vector<std::uint64_t> glinks = {kQ30MaxGlink, std::uint64_t{1} << 32,
                                       (std::uint64_t{1} << 32) - 1,
                                       kQ30MaxGlink, 0, kQ30MaxGlink - 30};
  expect_matches_reference(glinks, 30);
  const CompactLinks got = renumber_links(glinks, 30);
  EXPECT_EQ(got.link_of_hop,
            (std::vector<std::uint32_t>{4, 2, 1, 4, 0, 3}));
  EXPECT_EQ(got.peak_congestion, 2u);
}

/// Seeded random hop sequences: dense repeats (a few links), Q_24-sized
/// and Q_30-sized id ranges, so one, several and many radix passes run.
TEST(RenumberLinks, MatchesSortUniqueLowerBoundOnRandomInputs) {
  struct Case {
    std::uint64_t range;
    int dims;
    std::size_t hops;
  };
  const Case cases[] = {
      {2, 1, 100},           {50, 5, 10000},
      {1 << 11, 11, 20000},  {(std::uint64_t{1} << 24) * 24, 24, 50000},
      {kQ30MaxGlink + 1, 30, 50000},
  };
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "range " << c.range << " seed "
                                      << seed);
      Rng rng(seed);
      std::vector<std::uint64_t> glinks(c.hops);
      for (std::uint64_t& g : glinks) g = rng.below(c.range);
      expect_matches_reference(glinks, c.dims);
    }
  }
}

TEST(RenumberLinks, RejectsKeysWiderThan64Bits) {
  // Two hops need one hop bit; a 64-bit global id leaves no room for it.
  EXPECT_THROW(renumber_links({~std::uint64_t{0}, 1}, 30), Error);
  EXPECT_NO_THROW(renumber_links({~std::uint64_t{0}}, 30));
}

}  // namespace
}  // namespace hyperpath
