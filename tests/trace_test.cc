// Tests for the evaluator's spans in the system's causal Tracer: the
// observability surface a user debugs distributed plans with. Ships are
// the Network's `net/*` spans; everything else the evaluator does is an
// `eval/*` span.

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "xml/wire.h"
#include "xml/xml_parser.h"

namespace axml {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : sys_(Topology(LinkParams{0.010, 1.0e6})) {
    p0_ = sys_.AddPeer("p0");
    p1_ = sys_.AddPeer("p1");
  }

  /// Resident spans of `category`/`name`, oldest first.
  std::vector<TraceSpan> Spans(const std::string& category,
                               const std::string& name) const {
    std::vector<TraceSpan> out;
    for (TraceSpan& s : sys_.tracer().Events()) {
      if (s.category == category && s.name == name) out.push_back(s);
    }
    return out;
  }

  AxmlSystem sys_;
  PeerId p0_, p1_;
};

TEST_F(TraceTest, DisabledByDefault) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p1_, "d", "<r/>").ok());
  Evaluator ev(&sys_);
  ASSERT_TRUE(ev.Eval(p0_, Expr::Doc("d", p1_)).ok());
  EXPECT_EQ(sys_.tracer().recorded(), 0u);
  EXPECT_TRUE(sys_.tracer().Events().empty());
}

TEST_F(TraceTest, RecordsShipsWithTimesAndSizes) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p1_, "d", "<r><i/></r>").ok());
  sys_.tracer().set_enabled(true);
  Evaluator ev(&sys_);
  ASSERT_TRUE(ev.Eval(p0_, Expr::Doc("d", p1_)).ok());
  const std::vector<TraceSpan> events = sys_.tracer().Events();
  ASSERT_GE(events.size(), 2u);  // eval start + ship
  EXPECT_EQ(events[0].category, "eval");
  EXPECT_EQ(events[0].name, "eval");
  EXPECT_EQ(events[0].peer, p0_);

  // The ship is the net span of the document's encoding, p1 -> p0.
  const uint64_t doc_bytes =
      wire::EncodedTreeSize(*sys_.peer(p1_)->GetDocument("d"));
  const std::vector<TraceSpan> ships = Spans("net", "msg");
  ASSERT_EQ(ships.size(), 1u);
  EXPECT_EQ(ships[0].peer, p1_);
  EXPECT_EQ(ships[0].detail, "-> p0");
  EXPECT_EQ(ships[0].bytes, doc_bytes);
  EXPECT_GT(ships[0].duration, 0.0);
  // Times are non-decreasing.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time);
  }
}

TEST_F(TraceTest, RecordsServiceInvocationAndPick) {
  Query echo = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(
      sys_.InstallService(p1_, Service::Declarative("echo", echo)).ok());
  NodeIdGen tmp;
  TreePtr content = ParseXml("<d/>", &tmp).value();
  ASSERT_TRUE(sys_.InstallReplicatedDocument("ed", "d", content,
                                             {p1_}).ok());
  sys_.tracer().set_enabled(true);
  Evaluator ev(&sys_);
  TreePtr param = ParseXml("<m/>", sys_.peer(p0_)->gen()).value();
  ASSERT_TRUE(
      ev.Eval(p0_, Expr::Call(p1_, "echo", {Expr::Tree(param, p0_)}))
          .ok());
  const std::vector<TraceSpan> invokes = Spans("eval", "invoke");
  ASSERT_EQ(invokes.size(), 1u);
  EXPECT_EQ(invokes[0].peer, p1_);
  EXPECT_EQ(invokes[0].detail, "echo@p1");

  ASSERT_TRUE(ev.Eval(p0_, Expr::GenericDoc("ed")).ok());
  const std::vector<TraceSpan> picks = Spans("eval", "pick_doc");
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0].peer, p0_);
  EXPECT_EQ(picks[0].detail, "ed@any -> d@p1");
}

TEST_F(TraceTest, RecordsDelegationAndInstalls) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p1_, "d", "<r/>").ok());
  sys_.tracer().set_enabled(true);
  Evaluator ev(&sys_);
  ASSERT_TRUE(
      ev.Eval(p0_, Expr::EvalAt(p1_, Expr::Doc("d", p1_))).ok());
  const std::vector<TraceSpan> delegations = Spans("eval", "delegate");
  ASSERT_EQ(delegations.size(), 1u);
  EXPECT_EQ(delegations[0].peer, p0_);
  EXPECT_EQ(delegations[0].detail, "-> p1");
  // The delegation's bytes are the expression shipment's, p0 -> p1.
  bool saw_shipment = false;
  for (const TraceSpan& s : Spans("net", "msg")) {
    if (s.peer == p0_ && s.detail == "-> p1") {
      saw_shipment = true;
      EXPECT_EQ(s.bytes, delegations[0].bytes);
    }
  }
  EXPECT_TRUE(saw_shipment);
  EXPECT_GT(delegations[0].bytes, 0u);

  Query q = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(ev.Eval(p0_, Expr::ShipQuery(p1_, q, p0_, "svc")).ok());
  const std::vector<TraceSpan> installs = Spans("eval", "install_service");
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].peer, p1_);
  EXPECT_EQ(installs[0].detail, "svc@p1");
}

TEST_F(TraceTest, RecordsScActivation) {
  Query echo = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(
      sys_.InstallService(p1_, Service::Declarative("echo", echo)).ok());
  TreePtr doc = ParseXml("<news><sc mode=\"immediate\"><peer>p1</peer>"
                         "<service>echo</service>"
                         "<param1><item>n1</item></param1></sc></news>",
                         sys_.peer(p0_)->gen())
                    .value();
  const NodeId sc = doc->child(0)->id();
  sys_.tracer().set_enabled(true);
  Evaluator ev(&sys_);
  ASSERT_TRUE(ev.InstallAxmlDocument(p0_, "news", doc).ok());
  ev.RunToQuiescence();
  ASSERT_TRUE(ev.async_status().ok()) << ev.async_status();
  const std::vector<TraceSpan> activations = Spans("eval", "activate");
  ASSERT_EQ(activations.size(), 1u);
  EXPECT_EQ(activations[0].peer, p0_);
  EXPECT_EQ(activations[0].detail,
            StrCat("sc ", sc.ToString(), " -> echo@p1"));
  // The activated call invokes with the sc's parent as forward list.
  const std::vector<TraceSpan> invokes = Spans("eval", "invoke");
  ASSERT_EQ(invokes.size(), 1u);
  EXPECT_EQ(invokes[0].detail, "echo@p1 with forward list");
}

TEST_F(TraceTest, FormatIsOneLinePerEvent) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p1_, "d", "<r/>").ok());
  sys_.tracer().set_enabled(true);
  Evaluator ev(&sys_);
  ASSERT_TRUE(ev.Eval(p0_, Expr::Doc("d", p1_)).ok());
  const std::vector<TraceSpan> events = sys_.tracer().Events();
  ASSERT_FALSE(events.empty());
  for (const TraceSpan& s : events) {
    const std::string line = s.ToString();
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    EXPECT_NE(line.find("s] "), std::string::npos) << line;
  }
  EXPECT_NE(events[0].ToString().find("eval/eval @p0"), std::string::npos)
      << events[0].ToString();
}

}  // namespace
}  // namespace axml
