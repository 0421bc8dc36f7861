#include "algebra/expr.h"

#include "algebra/expr_xml.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "xml/wire.h"

namespace axml {

ExprPtr Expr::Tree(TreePtr t, PeerId owner) {
  AXML_CHECK(t != nullptr);
  AXML_CHECK(owner.is_concrete());
  auto e = std::make_shared<Expr>(Key{}, Kind::kTree);
  e->tree_ = std::move(t);
  e->peer_ = owner;
  return e;
}

ExprPtr Expr::Doc(DocName d, PeerId owner) {
  auto e = std::make_shared<Expr>(Key{}, Kind::kDoc);
  e->name_ = std::move(d);
  e->peer_ = owner;
  return e;
}

ExprPtr Expr::GenericDoc(std::string class_name) {
  return Doc(std::move(class_name), PeerId::Any());
}

ExprPtr Expr::Apply(Query q, PeerId query_peer, std::vector<ExprPtr> args) {
  AXML_CHECK(q.valid());
  auto e = std::make_shared<Expr>(Key{}, Kind::kApply);
  e->query_ = std::move(q);
  e->peer_ = query_peer;
  e->children_ = std::move(args);
  return e;
}

ExprPtr Expr::Call(PeerId provider, ServiceName service,
                   std::vector<ExprPtr> params,
                   std::vector<NodeLocation> forwards) {
  auto e = std::make_shared<Expr>(Key{}, Kind::kCall);
  e->peer_ = provider;
  e->name_ = std::move(service);
  e->children_ = std::move(params);
  e->forwards_ = std::move(forwards);
  return e;
}

ExprPtr Expr::CallGeneric(std::string service_class,
                          std::vector<ExprPtr> params,
                          std::vector<NodeLocation> forwards) {
  return Call(PeerId::Any(), std::move(service_class), std::move(params),
              std::move(forwards));
}

ExprPtr Expr::SendToPeer(PeerId dest, ExprPtr payload) {
  AXML_CHECK(payload != nullptr);
  auto e = std::make_shared<Expr>(Key{}, Kind::kSend);
  e->dest_.kind = SendDest::Kind::kPeer;
  e->dest_.peer = dest;
  e->children_.push_back(std::move(payload));
  return e;
}

ExprPtr Expr::SendToNodes(std::vector<NodeLocation> dests,
                          ExprPtr payload) {
  AXML_CHECK(payload != nullptr);
  AXML_CHECK(!dests.empty());
  auto e = std::make_shared<Expr>(Key{}, Kind::kSend);
  e->dest_.kind = SendDest::Kind::kNodes;
  e->dest_.nodes = std::move(dests);
  e->children_.push_back(std::move(payload));
  return e;
}

ExprPtr Expr::SendAsDoc(DocName name, PeerId dest, ExprPtr payload) {
  AXML_CHECK(payload != nullptr);
  auto e = std::make_shared<Expr>(Key{}, Kind::kSend);
  e->dest_.kind = SendDest::Kind::kNewDoc;
  e->dest_.peer = dest;
  e->dest_.doc_name = std::move(name);
  e->children_.push_back(std::move(payload));
  return e;
}

ExprPtr Expr::ShipQuery(PeerId dest, Query q, PeerId query_peer,
                        ServiceName install_as) {
  AXML_CHECK(q.valid());
  auto e = std::make_shared<Expr>(Key{}, Kind::kShipQuery);
  e->dest_.kind = SendDest::Kind::kPeer;
  e->dest_.peer = dest;
  e->query_ = std::move(q);
  e->peer_ = query_peer;
  e->name_ = std::move(install_as);
  return e;
}

ExprPtr Expr::EvalAt(PeerId where, ExprPtr body) {
  AXML_CHECK(body != nullptr);
  auto e = std::make_shared<Expr>(Key{}, Kind::kEvalAt);
  e->peer_ = where;
  e->children_.push_back(std::move(body));
  return e;
}

ExprPtr Expr::Seq(ExprPtr first, ExprPtr then) {
  AXML_CHECK(first != nullptr);
  AXML_CHECK(then != nullptr);
  auto e = std::make_shared<Expr>(Key{}, Kind::kSeq);
  e->children_.push_back(std::move(first));
  e->children_.push_back(std::move(then));
  return e;
}

ExprPtr Expr::WithChildren(std::vector<ExprPtr> children) const {
  AXML_CHECK_EQ(children.size(), children_.size());
  auto e = std::make_shared<Expr>(Key{}, kind_);
  e->tree_ = tree_;
  e->peer_ = peer_;
  e->name_ = name_;
  e->query_ = query_;
  e->dest_ = dest_;
  e->forwards_ = forwards_;
  e->children_ = std::move(children);
  return e;
}

std::string Expr::ToString() const {
  auto list = [](const std::vector<ExprPtr>& es) {
    std::string s;
    for (size_t i = 0; i < es.size(); ++i) {
      if (i > 0) s += ", ";
      s += es[i]->ToString();
    }
    return s;
  };
  switch (kind_) {
    case Kind::kTree:
      return StrCat("tree[", wire::EncodedTreeSize(*tree_), "B]@",
                    peer_.ToString());
    case Kind::kDoc:
      return StrCat("doc(", name_, ")@", peer_.ToString());
    case Kind::kApply:
      return StrCat("q@", peer_.ToString(), "(", list(children_), ")");
    case Kind::kCall: {
      std::string s = StrCat("sc(", peer_.ToString(), ", ", name_, ", [",
                             list(children_), "]");
      if (!forwards_.empty()) {
        s += ", fw=[";
        for (size_t i = 0; i < forwards_.size(); ++i) {
          if (i > 0) s += ", ";
          s += forwards_[i].ToString();
        }
        s += "]";
      }
      s += ")";
      return s;
    }
    case Kind::kSend:
      switch (dest_.kind) {
        case SendDest::Kind::kPeer:
          return StrCat("send(", dest_.peer.ToString(), ", ",
                        payload()->ToString(), ")");
        case SendDest::Kind::kNodes: {
          std::string s = "send([";
          for (size_t i = 0; i < dest_.nodes.size(); ++i) {
            if (i > 0) s += ", ";
            s += dest_.nodes[i].ToString();
          }
          return StrCat(s, "], ", payload()->ToString(), ")");
        }
        case SendDest::Kind::kNewDoc:
          return StrCat("send(doc:", dest_.doc_name, "@",
                        dest_.peer.ToString(), ", ", payload()->ToString(),
                        ")");
      }
      return "send(?)";
    case Kind::kShipQuery:
      return StrCat("shipQuery(", dest_.peer.ToString(), ", q@",
                    peer_.ToString(), " as ", name_, ")");
    case Kind::kEvalAt:
      return StrCat("evalAt(", peer_.ToString(), ", ", body()->ToString(),
                    ")");
    case Kind::kSeq:
      return StrCat("seq(", first()->ToString(), "; ", then()->ToString(),
                    ")");
  }
  return "?";
}

size_t Expr::SerializedSize() const {
  NodeIdGen gen;
  return SerializeCompactExpr(*this, &gen).size();
}

size_t Expr::NodeCount() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->NodeCount();
  return n;
}

}  // namespace axml
