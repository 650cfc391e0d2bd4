/**
 * @file
 * Skiplist memtable for the LSM engine.
 *
 * The memtable absorbs writes in memory until it reaches its size
 * budget, then is flushed to an SSTable. Deletes are recorded as
 * tombstones so they can shadow older on-disk versions. Within a
 * memtable, the latest write to a key wins; older versions are
 * superseded in place (no snapshot isolation is needed by ethkv).
 */

#ifndef ETHKV_KVSTORE_MEMTABLE_HH
#define ETHKV_KVSTORE_MEMTABLE_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/bytes.hh"
#include "common/rand.hh"
#include "kvstore/entry.hh"
#include "kvstore/internal_iterator.hh"

namespace ethkv::kv
{

/**
 * A probabilistic skiplist keyed by byte strings.
 */
class MemTable
{
  public:
    /** @param rng_seed Seed for tower-height coin flips. */
    explicit MemTable(uint64_t rng_seed = 0x5eed);
    ~MemTable();

    MemTable(const MemTable &) = delete;
    MemTable &operator=(const MemTable &) = delete;

    /**
     * Insert or overwrite a key.
     *
     * @param type Put or Tombstone.
     * @param seq Sequence number; must be newer than any prior write
     *            to this memtable.
     */
    void add(BytesView key, BytesView value, uint64_t seq,
             EntryType type);

    /**
     * Look up a key.
     *
     * @param entry Receives the full internal entry (which may be a
     *              tombstone — callers must check).
     * @return true if the key has an entry in this memtable.
     */
    bool get(BytesView key, InternalEntry &entry) const;

    /**
     * Visit entries with start <= key < end in ascending key order.
     *
     * Tombstones are visited too; the LSM merge layer resolves them.
     * An empty end means "to the end of the keyspace".
     *
     * @return false if the callback stopped the iteration.
     */
    bool forEach(
        BytesView start, BytesView end,
        const std::function<bool(const InternalEntry &)> &cb) const;

    /** Approximate memory footprint in bytes (keys + values). */
    uint64_t approximateBytes() const { return approximate_bytes_; }

    uint64_t entryCount() const { return entry_count_; }
    bool empty() const { return entry_count_ == 0; }

    /**
     * Create a cursor over this memtable.
     *
     * The memtable must outlive the cursor, and cursor calls must
     * not run concurrently with add(). A cursor stays usable across
     * add() calls, though: nodes are never unlinked, so next() from
     * a parked position reads the node's current successor.
     */
    std::unique_ptr<InternalIterator> newIterator() const;

  private:
    friend class MemTableIterator;

    struct Node;

    static constexpr int max_height = 16;

    int randomHeight();
    Node *findGreaterOrEqual(BytesView key, Node **prev) const;

    Node *head_;
    int height_ = 1;
    Rng rng_;
    uint64_t approximate_bytes_ = 0;
    uint64_t entry_count_ = 0;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_MEMTABLE_HH
