#include "net/bus.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>

#include "util/require.hpp"

namespace dmra {
namespace {

using StrBus = MessageBus<std::string>;

TEST(Bus, RegisterAssignsSequentialAddresses) {
  StrBus bus;
  EXPECT_EQ(bus.register_agent(), (AgentId{0}));
  EXPECT_EQ(bus.register_agent(), (AgentId{1}));
  EXPECT_EQ(bus.num_agents(), 2u);
}

TEST(Bus, MessagesInvisibleUntilDelivered) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  const AgentId b = bus.register_agent();
  bus.send(a, b, "hello");
  EXPECT_TRUE(bus.inbox_empty(b));
  EXPECT_EQ(bus.deliver(), 1u);
  EXPECT_FALSE(bus.inbox_empty(b));
  const auto inbox = bus.take_inbox(b);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].payload, "hello");
  EXPECT_EQ(inbox[0].from, a);
  EXPECT_EQ(inbox[0].to, b);
}

TEST(Bus, TakeInboxDrains) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  bus.send(a, a, "x");
  bus.deliver();
  EXPECT_EQ(bus.take_inbox(a).size(), 1u);
  EXPECT_TRUE(bus.take_inbox(a).empty());
}

TEST(Bus, PerRecipientOrderFollowsSendOrder) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  const AgentId b = bus.register_agent();
  const AgentId c = bus.register_agent();
  bus.send(a, c, "first");
  bus.send(b, c, "second");
  bus.send(a, c, "third");
  bus.deliver();
  const auto inbox = bus.take_inbox(c);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].payload, "first");
  EXPECT_EQ(inbox[1].payload, "second");
  EXPECT_EQ(inbox[2].payload, "third");
  EXPECT_LT(inbox[0].seq, inbox[1].seq);
  EXPECT_LT(inbox[1].seq, inbox[2].seq);
}

TEST(Bus, RoundsAdvanceOnDeliver) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  EXPECT_EQ(bus.round(), 0u);
  bus.send(a, a, "m");
  bus.deliver();
  EXPECT_EQ(bus.round(), 1u);
  bus.deliver();  // empty deliveries still tick the round
  EXPECT_EQ(bus.round(), 2u);
}

TEST(Bus, EnvelopesRecordTheSendRound) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  bus.deliver();
  bus.send(a, a, "late");
  bus.deliver();
  const auto inbox = bus.take_inbox(a);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].sent_round, 1u);
}

TEST(Bus, StatsCountTraffic) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  const AgentId b = bus.register_agent();
  bus.send(a, b, "1");
  bus.send(b, a, "2");
  bus.deliver();
  const BusStats& s = bus.stats();
  EXPECT_EQ(s.messages_sent, 2u);
  EXPECT_EQ(s.messages_delivered, 2u);
  EXPECT_EQ(s.rounds, 1u);
}

TEST(Bus, StatsRenderAsText) {
  BusStats s{3, 10, 9};
  const std::string text = to_string(s);
  EXPECT_NE(text.find("rounds=3"), std::string::npos);
  EXPECT_NE(text.find("sent=10"), std::string::npos);
  EXPECT_NE(text.find("delivered=9"), std::string::npos);
  // The schema is fixed: dropped= appears even on a loss-free bus, so log
  // parsers never see a field-count that depends on the loss model.
  EXPECT_NE(text.find("dropped=0"), std::string::npos);
}

TEST(Bus, StatsRenderDroppedCount) {
  BusStats s{3, 10, 9};
  s.messages_dropped = 1;
  EXPECT_NE(to_string(s).find("dropped=1"), std::string::npos);
}

TEST(Bus, SetLossAfterDeliverIsContractViolation) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  bus.send(a, a, "x");
  bus.deliver();
  // The loss model must cover the whole run; arming it mid-run would make
  // the drop sequence depend on when the caller got around to it.
  EXPECT_THROW(bus.set_faults(LinkFaults{.drop_probability = 0.5}, 7), ContractViolation);
}

TEST(Bus, SetLossTwiceIsContractViolation) {
  StrBus bus;
  bus.set_faults(LinkFaults{.drop_probability = 0.5}, 7);
  // Re-seeding resets the RNG.
  EXPECT_THROW(bus.set_faults(LinkFaults{.drop_probability = 0.25}, 8), ContractViolation);
}

TEST(Bus, SetLossRejectsOutOfRangeProbability) {
  StrBus bus;
  EXPECT_THROW(bus.set_faults(LinkFaults{.drop_probability = -0.1}, 7), ContractViolation);
  EXPECT_THROW(bus.set_faults(LinkFaults{.drop_probability = 1.0}, 7), ContractViolation);
}

TEST(Bus, SendToUnknownAgentIsContractViolation) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  EXPECT_THROW(bus.send(a, AgentId{5}, "x"), ContractViolation);
  EXPECT_THROW(bus.send(AgentId{5}, a, "x"), ContractViolation);
  EXPECT_THROW(bus.take_inbox(AgentId{5}), ContractViolation);
}

TEST(Bus, RegistrationAfterFirstSendIsContractViolation) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  bus.send(a, a, "x");
  EXPECT_THROW(bus.register_agent(), ContractViolation);
}

TEST(Bus, RegistrationAfterDeliverIsContractViolation) {
  // Regression: the guard used to check only "nothing sent yet", so an
  // agent could slip in after an (empty) deliver() — growing the segment
  // tables of a delivery schedule that had already started. The sharded
  // runtime builds one bus per region on the stricter contract.
  StrBus bus;
  bus.register_agent();
  bus.deliver();
  EXPECT_THROW(bus.register_agent(), ContractViolation);
}

TEST(Bus, MessagesSentDuringAPhaseArriveNextDeliver) {
  StrBus bus;
  const AgentId a = bus.register_agent();
  const AgentId b = bus.register_agent();
  bus.send(a, b, "r0");
  bus.deliver();
  // b reacts to r0 by sending a reply; the reply is not visible to a until
  // the next deliver.
  const auto inbox = bus.take_inbox(b);
  ASSERT_EQ(inbox.size(), 1u);
  bus.send(b, a, "reply");
  EXPECT_TRUE(bus.inbox_empty(a));
  bus.deliver();
  EXPECT_EQ(bus.take_inbox(a).at(0).payload, "reply");
}

TEST(Bus, ChannelReadsHandOutOnlyNewerPublications) {
  StrBus bus;
  bus.open_channels(2, 3);
  const auto post = [&](std::size_t channel, std::uint32_t base) {
    const std::span<std::uint32_t> w = bus.publish(channel);
    for (std::uint32_t k = 0; k < 3; ++k) w[k] = base + k;
  };
  std::uint32_t held = 0;
  EXPECT_EQ(bus.read(0, held), nullptr);  // nothing published yet
  post(0, 10);
  post(1, 90);
  post(0, 20);
  const std::uint32_t* w = bus.read(0, held);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(held, 2u);  // the newest of channel 0's two publications
  EXPECT_EQ(w[0], 20u);
  EXPECT_EQ(w[2], 22u);
  EXPECT_EQ(bus.read(0, held), nullptr);  // nothing newer than what it holds
  EXPECT_EQ(bus.stamp(1), 1u);
  // One publication is one send however many read it; nothing is queued.
  EXPECT_EQ(bus.stats().messages_sent, 3u);
  EXPECT_EQ(bus.stats().messages_delivered, 3u);
  EXPECT_EQ(bus.in_flight(), 0u);
  EXPECT_THROW(bus.open_channels(2, 3), ContractViolation);
  EXPECT_THROW(bus.publish(2), ContractViolation);
  EXPECT_THROW(bus.set_faults(LinkFaults{.drop_probability = 0.1}, 1), ContractViolation);
}

TEST(Bus, DelayedChannelReadsSeeOlderPublicationsFromTheWindow) {
  StrBus bus;
  bus.set_faults(LinkFaults{.delay_probability = 0.5, .max_delay_rounds = 2}, 7);
  bus.open_channels(1, 1);
  for (std::uint32_t k = 1; k <= 5; ++k) bus.publish(0)[0] = 100 + k;
  // Each read from scratch sees publication 5 - d for d in {0, 1, 2}; the
  // words always match the stamp the read moved `held` to.
  std::uint64_t seen[6] = {};
  for (int r = 0; r < 400; ++r) {
    std::uint32_t held = 0;
    const std::uint32_t* w = bus.read(0, held);
    ASSERT_NE(w, nullptr);
    ASSERT_GE(held, 3u);
    EXPECT_EQ(w[0], 100 + held);
    ++seen[held];
  }
  EXPECT_GT(seen[3], 0u);
  EXPECT_GT(seen[4], 0u);
  EXPECT_GT(seen[5], 0u);
  EXPECT_EQ(bus.stats().reads_delayed, seen[3] + seen[4]);
  // A reader already holding the newest publication gains nothing from a
  // delayed read.
  std::uint32_t newest = 5;
  for (int r = 0; r < 20; ++r) EXPECT_EQ(bus.read(0, newest), nullptr);
}

}  // namespace
}  // namespace dmra
