/**
 * @file
 * Cursor interface over internal LSM entries.
 *
 * Memtables and SSTables both expose this cursor so that scans and
 * compactions can k-way-merge any combination of sources through one
 * MergingIterator. KVStore::newIterator() returns the same interface
 * (yielding live entries only), so the sharded router merges whole
 * engines with that MergingIterator too.
 */

#ifndef ETHKV_KVSTORE_INTERNAL_ITERATOR_HH
#define ETHKV_KVSTORE_INTERNAL_ITERATOR_HH

#include <memory>
#include <vector>

#include "common/bytes.hh"
#include "common/status.hh"
#include "kvstore/entry.hh"

namespace ethkv::kv
{

/**
 * Forward cursor over internal entries in ascending key order.
 *
 * A freshly constructed iterator is positioned before the first
 * entry; call seek() (possibly with an empty key) to position it.
 */
class InternalIterator
{
  public:
    virtual ~InternalIterator() = default;

    /** Position at the first entry with key >= target. */
    virtual void seek(BytesView target) = 0;

    /** Whether the cursor points at an entry. */
    virtual bool valid() const = 0;

    /** Advance to the next entry; requires valid(). */
    virtual void next() = 0;

    /** The current entry; requires valid(). */
    virtual const InternalEntry &entry() const = 0;

    /**
     * Why the cursor stopped early: Ok while valid() or after a
     * clean end; otherwise the failure, and valid() is false.
     */
    virtual Status status() const { return Status::ok(); }
};

/**
 * Merges several sources into one ascending stream, newest first.
 *
 * Sources must be ordered newest-to-oldest. When multiple sources
 * hold the same user key, only the entry from the newest source is
 * yielded (including tombstones — callers filter those). A source
 * that fails ends the merged stream with that source's status.
 */
class MergingIterator : public InternalIterator
{
  public:
    explicit MergingIterator(
        std::vector<std::unique_ptr<InternalIterator>> sources);

    void seek(BytesView target) override;
    bool valid() const override;
    void next() override;
    const InternalEntry &entry() const override;
    Status status() const override { return status_; }

  private:
    /** Re-read source i's position after it moved. */
    void refresh(size_t i);
    void findCurrent();

    std::vector<std::unique_ptr<InternalIterator>> sources_;
    //! Current key of each source (stable until that source moves),
    //! so a step re-reads only the sources it advanced.
    std::vector<BytesView> keys_;
    std::vector<char> live_; //!< Whether source i is valid.
    size_t current_ = 0;     //!< Index of the winning source.
    const InternalEntry *entry_ = nullptr; //!< Null when invalid.
    Status status_ = Status::ok();
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_INTERNAL_ITERATOR_HH
