// Reference answers that do not come from the evaluator: a direct walk
// of the generated auction tree through the Store's navigation API
// (ChildrenOf / AttributeNamed / StringValue), checked against the
// entity counts in XMarkParams.

#ifndef XQBENCH_ORACLE_H_
#define XQBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xdm/store.h"
#include "xmark/generator.h"

namespace xqbench {

/// Element children of `node` named `name` (all element children when
/// `name` is empty), in document order.
std::vector<xqb::NodeId> ChildElements(const xqb::Store& store,
                                       xqb::NodeId node,
                                       const std::string& name = "");
/// First element child named `name`, or kInvalidNode.
xqb::NodeId FirstChild(const xqb::Store& store, xqb::NodeId node,
                       const std::string& name);
std::string AttributeValue(const xqb::Store& store, xqb::NodeId element,
                           const std::string& name);
/// Number of element nodes in the subtree of `node` (excluding `node`
/// itself unless it is an element).
int64_t CountElements(const xqb::Store& store, xqb::NodeId node);

/// Facts about one generated auction document, from a tree walk.
struct XMarkFacts {
  xqb::NodeId site = xqb::kInvalidNode;
  int64_t elements = 0;
  std::vector<xqb::NodeId> persons;        ///< site/people/person
  std::vector<xqb::NodeId> items;          ///< site/regions/*/item
  std::vector<xqb::NodeId> open_auctions;  ///< site/open_auctions/*
  std::vector<xqb::NodeId> closed_auctions;

  // Expected serialized answers of the xmark_scale suite.
  std::string q1;  ///< Name of person0.
  std::string q2;  ///< First bidder's increase element of each auction.
  int64_t q5_high = 0;
  int64_t q5_low = 0;
  std::string q8;  ///< Purchases per person, persons ordered by @id.
  int64_t q8_total = 0;
  int64_t q20_with = 0;
  int64_t q20_without = 0;

  /// Empty when the walk agrees with the XMarkParams entity counts;
  /// otherwise what disagreed.
  std::string params_mismatch;
};

XMarkFacts WalkXMark(const xqb::Store& store, xqb::NodeId doc,
                     const xqb::XMarkParams& params);

}  // namespace xqbench

#endif  // XQBENCH_ORACLE_H_
