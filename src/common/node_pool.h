// Free list of extracted node-container nodes.
//
// Node-based containers (std::map/set, std::unordered_map/set) allocate one
// node per insert and free it per erase. A NodePool parks erased nodes as
// C++17 node handles and hands them back on the next insert, so a
// container whose population churns at a bounded size stops allocating
// once warm; the pool never holds more nodes than the container's peak
// size. A reinserted node lands exactly where a fresh emplace of the same
// key would, so iteration order and tie-breaks are unchanged. Node handles
// move between containers of the same type, so one pool can serve many
// containers (per-bucket or per-entry maps).
#pragma once

#include <utility>
#include <vector>

#include "common/expect.h"

namespace saath {

template <typename Container>
class NodePool {
 public:
  using node_type = typename Container::node_type;
  using key_type = typename Container::key_type;
  using iterator = typename Container::iterator;

  /// Erases `it` from `c`, parking its node.
  void erase(Container& c, typename Container::const_iterator it) {
    free_.push_back(c.extract(it));
  }

  /// Erases `key` from `c` when present (parking its node); returns
  /// whether it was.
  bool erase(Container& c, const key_type& key) {
    node_type node = c.extract(key);
    if (node.empty()) return false;
    free_.push_back(std::move(node));
    return true;
  }

  /// Inserts `key` when absent, reusing a parked node when one exists;
  /// returns (position, inserted) like the container's own insert. For
  /// maps the mapped value of a reused node is left as its previous owner
  /// had it (capacity included) and the caller re-initializes what it
  /// needs; a fresh node value-initializes it.
  std::pair<iterator, bool> insert(Container& c, const key_type& key) {
    if (free_.empty()) {
      if constexpr (kIsMap) {
        return c.try_emplace(key);
      } else {
        return c.insert(key);
      }
    }
    node_type node = std::move(free_.back());
    free_.pop_back();
    if constexpr (kIsMap) {
      node.key() = key;
    } else {
      node.value() = key;
    }
    auto result = c.insert(std::move(node));
    if (!result.inserted) free_.push_back(std::move(result.node));
    return {result.position, result.inserted};
  }

  /// insert() for a key the caller knows is absent.
  iterator insert_new(Container& c, const key_type& key) {
    const auto [it, inserted] = insert(c, key);
    SAATH_EXPECTS(inserted);
    return it;
  }

  /// Parked nodes.
  [[nodiscard]] std::size_t size() const { return free_.size(); }

 private:
  static constexpr bool kIsMap = requires { typename Container::mapped_type; };

  std::vector<node_type> free_;
};

}  // namespace saath
