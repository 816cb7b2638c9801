// renumber_links (sim/simcore.hpp) against its specification: a hop's
// compact id is the lower_bound rank of its global id in the sorted,
// deduplicated id list; that list is the rank -> global id table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "sim/simcore.hpp"

namespace hyperpath {
namespace {

using simcore::CompactLinks;
using simcore::renumber_links;

CompactLinks reference_renumber(const std::vector<std::uint64_t>& glinks) {
  std::vector<std::uint64_t> uniq = glinks;
  std::sort(uniq.begin(), uniq.end());
  CompactLinks out;
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  for (const std::uint64_t g : glinks) {
    out.link_of_hop.push_back(static_cast<std::uint32_t>(
        std::lower_bound(uniq.begin(), uniq.end(), g) - uniq.begin()));
  }
  out.links = uniq;
  return out;
}

void expect_matches_reference(const std::vector<std::uint64_t>& glinks) {
  const CompactLinks want = reference_renumber(glinks);
  const CompactLinks got = renumber_links(glinks);
  EXPECT_EQ(got.link_of_hop, want.link_of_hop);
  EXPECT_EQ(got.links, want.links);
}

/// The largest global id of Q_30: tail 2^30 − 1, dimension 29.
constexpr std::uint64_t kQ30MaxGlink = ((std::uint64_t{1} << 30) - 1) * 30 + 29;

TEST(RenumberLinks, EmptyInput) {
  const CompactLinks got = renumber_links({});
  EXPECT_TRUE(got.link_of_hop.empty());
  EXPECT_TRUE(got.links.empty());
}

TEST(RenumberLinks, SingleHop) {
  const CompactLinks got = renumber_links({kQ30MaxGlink});
  EXPECT_EQ(got.link_of_hop, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(got.links, (std::vector<std::uint64_t>{kQ30MaxGlink}));
  expect_matches_reference({0});
}

TEST(RenumberLinks, AllEqualIds) {
  expect_matches_reference(std::vector<std::uint64_t>(1000, 12345));
  expect_matches_reference(std::vector<std::uint64_t>(7, 0));
  const CompactLinks got =
      renumber_links(std::vector<std::uint64_t>(300, kQ30MaxGlink));
  EXPECT_EQ(got.links.size(), 1u);
}

TEST(RenumberLinks, StrictlyDescendingIds) {
  std::vector<std::uint64_t> glinks;
  for (std::uint64_t g = 5000; g-- > 0;) glinks.push_back(g * 7919);
  expect_matches_reference(glinks);
  const CompactLinks got = renumber_links(glinks);
  EXPECT_EQ(got.link_of_hop.front(), 4999u);
  EXPECT_EQ(got.link_of_hop.back(), 0u);
}

TEST(RenumberLinks, IdsPast32Bits) {
  std::vector<std::uint64_t> glinks = {kQ30MaxGlink, std::uint64_t{1} << 32,
                                       (std::uint64_t{1} << 32) - 1,
                                       kQ30MaxGlink, 0, kQ30MaxGlink - 30};
  expect_matches_reference(glinks);
  const CompactLinks got = renumber_links(glinks);
  EXPECT_EQ(got.link_of_hop,
            (std::vector<std::uint32_t>{4, 2, 1, 4, 0, 3}));
}

/// Seeded random hop sequences: dense repeats (a few links), Q_24-sized
/// and Q_30-sized id ranges, so one, several and many radix passes run.
TEST(RenumberLinks, MatchesSortUniqueLowerBoundOnRandomInputs) {
  struct Case {
    std::uint64_t range;
    std::size_t hops;
  };
  const Case cases[] = {
      {2, 100},           {50, 10000},
      {1 << 11, 20000},   {(std::uint64_t{1} << 24) * 24, 50000},
      {kQ30MaxGlink + 1, 50000},
  };
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "range " << c.range << " seed "
                                      << seed);
      Rng rng(seed);
      std::vector<std::uint64_t> glinks(c.hops);
      for (std::uint64_t& g : glinks) g = rng.below(c.range);
      expect_matches_reference(glinks);
    }
  }
}

TEST(RenumberLinks, RejectsKeysWiderThan64Bits) {
  // Two hops need one hop bit; a 64-bit global id leaves no room for it.
  EXPECT_THROW(renumber_links({~std::uint64_t{0}, 1}), Error);
  EXPECT_NO_THROW(renumber_links({~std::uint64_t{0}}));
}

}  // namespace
}  // namespace hyperpath
