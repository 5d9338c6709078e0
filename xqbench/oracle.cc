#include "oracle.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "xml/serializer.h"

namespace xqbench {

using xqb::kInvalidNode;
using xqb::NodeId;
using xqb::NodeKind;
using xqb::Store;

std::vector<NodeId> ChildElements(const Store& store, NodeId node,
                                  const std::string& name) {
  std::vector<NodeId> out;
  for (NodeId child : store.ChildrenOf(node)) {
    if (store.KindOf(child) != NodeKind::kElement) continue;
    if (name.empty() || store.NameOf(child) == name) out.push_back(child);
  }
  return out;
}

NodeId FirstChild(const Store& store, NodeId node, const std::string& name) {
  for (NodeId child : store.ChildrenOf(node)) {
    if (store.KindOf(child) == NodeKind::kElement &&
        store.NameOf(child) == name) {
      return child;
    }
  }
  return kInvalidNode;
}

std::string AttributeValue(const Store& store, NodeId element,
                           const std::string& name) {
  if (element == kInvalidNode) return "";
  NodeId attr = store.AttributeNamed(element, name);
  return attr == kInvalidNode ? "" : store.StringValue(attr);
}

int64_t CountElements(const Store& store, NodeId node) {
  int64_t count = 0;
  std::vector<NodeId> stack = {node};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (store.KindOf(n) == NodeKind::kElement) ++count;
    for (NodeId child : store.ChildrenOf(n)) stack.push_back(child);
  }
  return count;
}

namespace {

std::string JoinCounts(const std::vector<int64_t>& counts) {
  std::string out;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) out.push_back(' ');
    out += std::to_string(counts[i]);
  }
  return out;
}

void ExpectCount(const char* what, size_t got, int64_t want,
                 std::string* mismatch) {
  if (static_cast<int64_t>(got) == want) return;
  *mismatch += std::string(what) + ": walked " + std::to_string(got) +
               ", XMarkParams says " + std::to_string(want) + "; ";
}

}  // namespace

XMarkFacts WalkXMark(const Store& store, NodeId doc,
                     const xqb::XMarkParams& params) {
  XMarkFacts f;
  f.site = FirstChild(store, doc, "site");
  if (f.site == kInvalidNode) {
    f.params_mismatch = "no site element";
    return f;
  }
  f.elements = CountElements(store, doc);
  NodeId regions = FirstChild(store, f.site, "regions");
  for (NodeId region : ChildElements(store, regions)) {
    for (NodeId item : ChildElements(store, region, "item")) {
      f.items.push_back(item);
    }
  }
  f.persons = ChildElements(store, FirstChild(store, f.site, "people"),
                            "person");
  f.open_auctions = ChildElements(
      store, FirstChild(store, f.site, "open_auctions"), "open_auction");
  f.closed_auctions = ChildElements(
      store, FirstChild(store, f.site, "closed_auctions"), "closed_auction");

  // Q1: the name of person0.
  for (NodeId p : f.persons) {
    if (AttributeValue(store, p, "id") == "person0") {
      f.q1 = store.StringValue(FirstChild(store, p, "name"));
      break;
    }
  }
  // Q2: each open auction's first bidder's increase, serialized.
  for (NodeId a : f.open_auctions) {
    NodeId bidder = FirstChild(store, a, "bidder");
    if (bidder == kInvalidNode) continue;
    NodeId increase = FirstChild(store, bidder, "increase");
    if (increase != kInvalidNode) f.q2 += xqb::SerializeNode(store, increase);
  }
  // Q5: closed auctions priced at or above 250, and below.
  std::unordered_map<std::string, int64_t> bought;
  for (NodeId t : f.closed_auctions) {
    const double price = std::strtod(
        store.StringValue(FirstChild(store, t, "price")).c_str(), nullptr);
    (price >= 250 ? f.q5_high : f.q5_low) += 1;
    ++bought[AttributeValue(store, FirstChild(store, t, "buyer"), "person")];
  }
  // Q8: purchases per person, persons ordered by @id as strings.
  std::vector<std::pair<std::string, int64_t>> per_person;
  for (NodeId p : f.persons) {
    const std::string id = AttributeValue(store, p, "id");
    auto it = bought.find(id);
    per_person.emplace_back(id, it == bought.end() ? 0 : it->second);
    // Q20: persons with and without a profile income.
    NodeId profile = FirstChild(store, p, "profile");
    const bool income = profile != kInvalidNode &&
                        store.AttributeNamed(profile, "income") != kInvalidNode;
    (income ? f.q20_with : f.q20_without) += 1;
  }
  std::stable_sort(per_person.begin(), per_person.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<int64_t> counts;
  for (const auto& [id, n] : per_person) {
    counts.push_back(n);
    f.q8_total += n;
  }
  f.q8 = JoinCounts(counts);

  ExpectCount("persons", f.persons.size(), params.persons(),
              &f.params_mismatch);
  ExpectCount("items", f.items.size(), params.items(), &f.params_mismatch);
  ExpectCount("open auctions", f.open_auctions.size(), params.open_auctions(),
              &f.params_mismatch);
  ExpectCount("closed auctions", f.closed_auctions.size(),
              params.closed_auctions(), &f.params_mismatch);
  // The invariants of tests/integration/xmark_queries_test.cc.
  ExpectCount("Q5 high + low", static_cast<size_t>(f.q5_high + f.q5_low),
              params.closed_auctions(), &f.params_mismatch);
  ExpectCount("Q8 total", static_cast<size_t>(f.q8_total),
              params.closed_auctions(), &f.params_mismatch);
  ExpectCount("Q20 with + without",
              static_cast<size_t>(f.q20_with + f.q20_without),
              params.persons(), &f.params_mismatch);
  return f;
}

}  // namespace xqbench
