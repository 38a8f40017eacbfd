// util/huge_pages.hpp: huge_page_span keeps exactly the whole 2 MiB pages
// inside a byte range, and advise_huge_pages accepts any range (it is a hint
// whose failure is ignored).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/huge_pages.hpp"

namespace ipcomp {
namespace {

constexpr std::size_t kHp = kHugePageBytes;

/// A buffer with a 2 MiB boundary and room for three huge pages after it, so
/// every pointer below stays inside one allocation.
class HugePageSpan : public ::testing::Test {
 protected:
  std::vector<std::byte> buf_ = std::vector<std::byte>(4 * kHp);
  std::byte* aligned_ =
      buf_.data() +
      (kHp - reinterpret_cast<std::uintptr_t>(buf_.data()) % kHp) % kHp;
};

TEST_F(HugePageSpan, ExactMultiplesAreKeptWhole) {
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(aligned_) % kHp, 0u);
  for (std::size_t pages : {1u, 2u, 3u}) {
    const auto s = huge_page_span(aligned_, pages * kHp);
    EXPECT_EQ(s.data(), aligned_) << pages;
    EXPECT_EQ(s.size(), pages * kHp) << pages;
  }
}

TEST_F(HugePageSpan, UnalignedStartRoundsUpToTheNextBoundary) {
  const auto s = huge_page_span(aligned_ + 16, 3 * kHp - 16);
  EXPECT_EQ(s.data(), aligned_ + kHp);
  EXPECT_EQ(s.size(), 2 * kHp);
}

TEST_F(HugePageSpan, UnalignedEndRoundsDown) {
  const auto s = huge_page_span(aligned_, 2 * kHp + 100);
  EXPECT_EQ(s.data(), aligned_);
  EXPECT_EQ(s.size(), 2 * kHp);
  const auto t = huge_page_span(aligned_ + 16, 3 * kHp - 17);
  EXPECT_EQ(t.data(), aligned_ + kHp);
  EXPECT_EQ(t.size(), kHp);
}

TEST_F(HugePageSpan, NoWholePageIsEmpty) {
  EXPECT_TRUE(huge_page_span(aligned_, 0).empty());
  EXPECT_TRUE(huge_page_span(aligned_, kHp - 1).empty());
  EXPECT_TRUE(huge_page_span(aligned_ + 1, kHp).empty());
  // Longer than a huge page, but straddling a boundary without covering one.
  EXPECT_TRUE(huge_page_span(aligned_ + 16, 2 * kHp - 17).empty());
}

TEST_F(HugePageSpan, AdviseIgnoresEveryRange) {
  advise_huge_pages(buf_.data(), 0);
  advise_huge_pages(aligned_ + 16, kHp);
  advise_huge_pages(buf_.data(), buf_.size());
  for (std::byte b : buf_) ASSERT_EQ(b, std::byte{0});
}

}  // namespace
}  // namespace ipcomp
