// The expression algebra E (§3.1), the paper's main contribution.
//
// Constructors, mapping 1:1 to the paper's language:
//
//   Tree(t, p)            — a tree t@p
//   Doc(d, p)             — a document d@p
//   GenericDoc(ed)        — a generic document ed@any (§2.3)
//   Apply(q, pq, args)    — q@pq(e1, ..., en): query application
//   Call(pv, s, params, fwList)
//                         — sc(pprov|any, serv, [param...], [forw...])
//   SendToPeer(p2, e)     — send(p2, e): make e's results available at p2
//   SendToNodes(locs, e)  — send([n2@p2, ...], e): append results under
//                           each listed node (§3.1 multi-destination)
//   SendAsDoc(d, p2, e)   — send(d@p2, e): install the result as a new
//                           document named d at p2
//   ShipQuery(p2, q, name)— send(p2, q@p1): deploy q as a new service on
//                           p2 (def. (8)); `name` is the service name
//                           ("by a slight abuse of notation" the paper
//                           leaves it implicit; we make it explicit)
//   EvalAt(p2, e)         — delegate: ship the (serialized) expression
//                           tree e to p2, evaluate it there, results
//                           return to the consumer. This is the paper's
//                           eval@p2(send(p, eval@p(e))) pattern of rules
//                           (14)/(15) reified as a constructor; §3.1
//                           notes expressions are themselves XML trees
//                           that can be shipped.
//   Seq(first, then)      — evaluate `first` to quiescence (for its side
//                           effects), then evaluate `then`. Needed by
//                           rule (13), whose right-hand side "is only
//                           enabled when d is available at p".
//
// Expressions are immutable and shared (ExprPtr); rewrites build new
// nodes. See expr_xml.h for the XML (de)serialization used when an
// expression is delegated to another peer, and evaluator.h for the
// operational semantics (definitions (1)-(9)).

#ifndef AXML_ALGEBRA_EXPR_H_
#define AXML_ALGEBRA_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "peer/axml_doc.h"
#include "query/query.h"
#include "xml/tree.h"

namespace axml {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// One node of an algebraic expression.
class Expr {
  /// Passkey: only Expr's factories can name it, so the public
  /// constructor is unreachable from outside while make_shared can call it.
  struct Key {
    explicit Key() = default;
  };

 public:
  enum class Kind {
    kTree,
    kDoc,        ///< concrete d@p or generic ed@any
    kApply,      ///< query application
    kCall,       ///< service call
    kSend,       ///< send to peer / node list / new document
    kShipQuery,  ///< deploy a query as a service (def. (8))
    kEvalAt,     ///< delegation (rules (14)/(15))
    kSeq,        ///< sequencing (rule (13))
  };

  /// Destination of a kSend.
  struct SendDest {
    enum class Kind { kPeer, kNodes, kNewDoc };
    Kind kind = Kind::kPeer;
    PeerId peer;                       ///< kPeer / kNewDoc
    std::vector<NodeLocation> nodes;   ///< kNodes
    DocName doc_name;                  ///< kNewDoc
  };

  Expr(Key, Kind k) : kind_(k) {}

  // --- Factories (see file comment) ---
  static ExprPtr Tree(TreePtr t, PeerId owner);
  static ExprPtr Doc(DocName d, PeerId owner);
  static ExprPtr GenericDoc(std::string class_name);
  static ExprPtr Apply(Query q, PeerId query_peer,
                       std::vector<ExprPtr> args);
  static ExprPtr Call(PeerId provider, ServiceName service,
                      std::vector<ExprPtr> params,
                      std::vector<NodeLocation> forwards = {});
  /// Generic service call: sc(any, class_name, ...).
  static ExprPtr CallGeneric(std::string service_class,
                             std::vector<ExprPtr> params,
                             std::vector<NodeLocation> forwards = {});
  static ExprPtr SendToPeer(PeerId dest, ExprPtr payload);
  static ExprPtr SendToNodes(std::vector<NodeLocation> dests,
                             ExprPtr payload);
  static ExprPtr SendAsDoc(DocName name, PeerId dest, ExprPtr payload);
  static ExprPtr ShipQuery(PeerId dest, Query q, PeerId query_peer,
                           ServiceName install_as);
  static ExprPtr EvalAt(PeerId where, ExprPtr body);
  static ExprPtr Seq(ExprPtr first, ExprPtr then);

  Kind kind() const { return kind_; }

  // kTree
  const TreePtr& tree() const { return tree_; }
  PeerId tree_owner() const { return peer_; }
  // kDoc
  const DocName& doc_name() const { return name_; }
  PeerId doc_peer() const { return peer_; }
  bool is_generic_doc() const {
    return kind_ == Kind::kDoc && peer_.is_any();
  }
  // kApply
  const Query& query() const { return query_; }
  PeerId query_peer() const { return peer_; }
  const std::vector<ExprPtr>& args() const { return children_; }
  // kCall
  PeerId provider() const { return peer_; }
  const ServiceName& service() const { return name_; }
  bool is_generic_service() const {
    return kind_ == Kind::kCall && peer_.is_any();
  }
  const std::vector<ExprPtr>& params() const { return children_; }
  const std::vector<NodeLocation>& forwards() const { return forwards_; }
  // kSend
  const SendDest& dest() const { return dest_; }
  const ExprPtr& payload() const { return children_[0]; }
  // kShipQuery
  PeerId ship_dest() const { return dest_.peer; }
  const ServiceName& install_as() const { return name_; }
  // kEvalAt
  PeerId eval_where() const { return peer_; }
  const ExprPtr& body() const { return children_[0]; }
  // kSeq
  const ExprPtr& first() const { return children_[0]; }
  const ExprPtr& then() const { return children_[1]; }

  /// All child expressions (args / params / payload / body / seq parts).
  const std::vector<ExprPtr>& children() const { return children_; }
  /// Rebuilds this node with new children (same arity), for rewriters.
  ExprPtr WithChildren(std::vector<ExprPtr> children) const;

  /// Single-line diagnostic form, e.g.
  /// "send(p2, q@p1(doc(catalog)@p0))".
  std::string ToString() const;

  /// Serialized size in bytes when this expression itself is shipped
  /// (delegation); equals the XML serialization's length.
  size_t SerializedSize() const;

  /// Total number of Expr nodes (for optimizer budgets).
  size_t NodeCount() const;

 private:
  Kind kind_;
  TreePtr tree_;
  PeerId peer_;  ///< owner / query peer / provider / eval-at peer
  DocName name_; ///< doc name / service name / install-as name
  Query query_;
  SendDest dest_;
  std::vector<ExprPtr> children_;
  std::vector<NodeLocation> forwards_;
};

}  // namespace axml

#endif  // AXML_ALGEBRA_EXPR_H_
