/**
 * @file
 * Small LRU cache template (not thread-safe; callers lock).
 *
 * Consolidation memoizes the Weyl coordinates of repeated block
 * unitaries in one (Section VI-C of the paper), the serve engine keeps
 * its memo of full transpile results and its parsed topologies in two
 * more, and each thread keeps its sparse-topology distance rows in one.
 */

#ifndef MIRAGE_COMMON_LRU_CACHE_HH
#define MIRAGE_COMMON_LRU_CACHE_HH

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace mirage {

/**
 * Fixed-capacity least-recently-used cache.
 *
 * @tparam Key   hashable key type
 * @tparam Value default-constructible, movable value type
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache
{
  public:
    /** Hold at most `capacity` entries (at least 1). */
    explicit LruCache(size_t capacity = 1 << 16) : capacity_(capacity) {}

    /**
     * Look up a key, refreshing its recency on hit. The pointer stays
     * valid until the entry is evicted, overwritten or cleared.
     */
    Value *
    get(const Key &key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second.second);
        return &it->second.first;
    }

    /**
     * Insert or overwrite a key; returns the stored value, which the
     * insertion never evicts (it is the most recent entry).
     */
    Value &
    put(const Key &key, Value value)
    {
        auto [it, inserted] = map_.try_emplace(key);
        it->second.first = std::move(value);
        if (!inserted) {
            order_.splice(order_.begin(), order_, it->second.second);
            return it->second.first;
        }
        order_.push_front(&it->first);
        it->second.second = order_.begin();
        if (map_.size() > capacity_) {
            map_.erase(map_.find(*order_.back()));
            order_.pop_back();
        }
        return it->second.first;
    }

    size_t size() const { return map_.size(); }

    void
    clear()
    {
        map_.clear();
        order_.clear();
    }

  private:
    size_t capacity_;
    /**
     * Recency order, most recent first. It points at the map's keys
     * (element addresses survive a rehash), so each key is stored once:
     * a serve memo key is a whole circuit.
     */
    std::list<const Key *> order_;
    std::unordered_map<
        Key, std::pair<Value, typename std::list<const Key *>::iterator>,
        Hash>
        map_;
};

} // namespace mirage

#endif // MIRAGE_COMMON_LRU_CACHE_HH
