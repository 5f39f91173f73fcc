#include "mad/link_store.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"

namespace tcob {
namespace {

class LinkStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dm = DiskManager::Open(dir_.path() + "/db");
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(dm).value();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 64);
    links_ = std::make_unique<LinkStore>(pool_.get(), "links");
    link_.id = 1;
    link_.name = "DeptEmp";
    link_.from_type = 1;
    link_.to_type = 2;
  }

  TempDir dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LinkStore> links_;
  LinkTypeDef link_;
};

TEST_F(LinkStoreTest, ConnectAndNeighbors) {
  ASSERT_TRUE(links_->Connect(link_, 1, 10, 5).ok());
  ASSERT_TRUE(links_->Connect(link_, 1, 11, 5).ok());
  auto fwd = links_->NeighborsAsOf(link_, 1, true, 7).value();
  ASSERT_EQ(fwd.size(), 2u);
  EXPECT_EQ(fwd[0], 10u);
  EXPECT_EQ(fwd[1], 11u);
  // Before the connection: nothing.
  EXPECT_TRUE(links_->NeighborsAsOf(link_, 1, true, 4).value().empty());
  // Reverse direction.
  auto rev = links_->NeighborsAsOf(link_, 10, false, 7).value();
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_EQ(rev[0], 1u);
}

TEST_F(LinkStoreTest, DisconnectClosesInterval) {
  ASSERT_TRUE(links_->Connect(link_, 1, 10, 5).ok());
  ASSERT_TRUE(links_->Disconnect(link_, 1, 10, 9).ok());
  EXPECT_EQ(links_->NeighborsAsOf(link_, 1, true, 8).value().size(), 1u);
  EXPECT_TRUE(links_->NeighborsAsOf(link_, 1, true, 9).value().empty());
  // Reverse index also closed.
  EXPECT_TRUE(links_->NeighborsAsOf(link_, 10, false, 9).value().empty());
}

TEST_F(LinkStoreTest, ReconnectCreatesSecondInterval) {
  ASSERT_TRUE(links_->Connect(link_, 1, 10, 5).ok());
  ASSERT_TRUE(links_->Disconnect(link_, 1, 10, 9).ok());
  ASSERT_TRUE(links_->Connect(link_, 1, 10, 20).ok());
  EXPECT_EQ(links_->NeighborsAsOf(link_, 1, true, 7).value().size(), 1u);
  EXPECT_TRUE(links_->NeighborsAsOf(link_, 1, true, 15).value().empty());
  EXPECT_EQ(links_->NeighborsAsOf(link_, 1, true, 25).value().size(), 1u);
  auto spans = links_->NeighborsIn(link_, 1, true, Interval::All()).value();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].second, Interval(5, 9));
  EXPECT_EQ(spans[1].second, Interval(20, kForever));
}

TEST_F(LinkStoreTest, ErrorCases) {
  ASSERT_TRUE(links_->Connect(link_, 1, 10, 5).ok());
  // Double connect while open.
  EXPECT_TRUE(links_->Connect(link_, 1, 10, 7).IsAlreadyExists());
  // Re-applying the same connect is a double connect too.
  EXPECT_TRUE(links_->Connect(link_, 1, 10, 5).IsAlreadyExists());
  // Disconnect of a non-existent connection.
  EXPECT_TRUE(links_->Disconnect(link_, 2, 10, 7).IsNotFound());
  EXPECT_TRUE(links_->Disconnect(link_, 1, 99, 7).IsNotFound());
  // Disconnect before the connection began.
  EXPECT_TRUE(links_->Disconnect(link_, 1, 10, 5).IsInvalidArgument());
  ASSERT_TRUE(links_->Disconnect(link_, 1, 10, 9).ok());
  // Re-applying the disconnect finds no open connection.
  EXPECT_TRUE(links_->Disconnect(link_, 1, 10, 9).IsNotFound());
  // Reconnect overlapping the closed interval.
  EXPECT_TRUE(links_->Connect(link_, 1, 10, 7).IsInvalidArgument());
}

TEST_F(LinkStoreTest, NeighborsInWindow) {
  ASSERT_TRUE(links_->Connect(link_, 1, 10, 5).ok());
  ASSERT_TRUE(links_->Connect(link_, 1, 11, 50).ok());
  auto early = links_->NeighborsIn(link_, 1, true, Interval(0, 20)).value();
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].first, 10u);
  auto all = links_->NeighborsIn(link_, 1, true, Interval(0, 100)).value();
  EXPECT_EQ(all.size(), 2u);
}

TEST_F(LinkStoreTest, PersistsAcrossReopen) {
  ASSERT_TRUE(links_->Connect(link_, 1, 10, 5).ok());
  ASSERT_TRUE(links_->Connect(link_, 2, 20, 5).ok());
  ASSERT_TRUE(links_->Disconnect(link_, 1, 10, 9).ok());
  ASSERT_TRUE(links_->Flush().ok());
  links_.reset();
  pool_ = std::make_unique<BufferPool>(disk_.get(), 64);
  links_ = std::make_unique<LinkStore>(pool_.get(), "links");
  EXPECT_TRUE(links_->NeighborsAsOf(link_, 1, true, 20).value().empty());
  EXPECT_EQ(links_->NeighborsAsOf(link_, 1, true, 7).value().size(), 1u);
  EXPECT_EQ(links_->NeighborsAsOf(link_, 2, true, 20).value().size(), 1u);
}

TEST_F(LinkStoreTest, DistinctLinkTypesIsolated) {
  LinkTypeDef other;
  other.id = 2;
  other.name = "EmpProj";
  other.from_type = 2;
  other.to_type = 3;
  ASSERT_TRUE(links_->Connect(link_, 1, 10, 5).ok());
  ASSERT_TRUE(links_->Connect(other, 1, 99, 5).ok());
  auto a = links_->NeighborsAsOf(link_, 1, true, 7).value();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], 10u);
  auto b = links_->NeighborsAsOf(other, 1, true, 7).value();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 99u);
}

}  // namespace
}  // namespace tcob
