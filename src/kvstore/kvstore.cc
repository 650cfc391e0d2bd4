#include "kvstore/kvstore.hh"

#include "common/logging.hh"

namespace ethkv::kv
{

namespace
{

//! Entries the default cursor copies out of scan() per pull. Small,
//! because a merge over N shards pulls from every shard at once and
//! a SCAN rarely wants more than a hundred entries in total.
constexpr size_t kDefaultScanChunk = 32;

} // namespace

std::unique_ptr<InternalIterator>
KVStore::newIterator(BytesView start, BytesView end)
{
    return std::make_unique<ChunkedScanIterator>(
        [this](BytesView s, BytesView e, const ScanCallback &cb) {
            return scan(s, e, cb);
        },
        start, end, kDefaultScanChunk);
}

Status
KVStore::apply(const WriteBatch &batch)
{
    for (const BatchEntry &e : batch.entries()) {
        Status s = e.op == BatchOp::Put ? put(e.key, e.value)
                                        : del(e.key);
        if (!s.isOk())
            return s;
    }
    return Status::ok();
}

bool
KVStore::contains(BytesView key)
{
    Bytes value;
    return get(key, value).isOk();
}

ChunkedScanIterator::ChunkedScanIterator(ScanFn scan, BytesView start,
                                         BytesView end, size_t chunk)
    : scan_(std::move(scan)), start_(start), end_(end), chunk_(chunk)
{}

void
ChunkedScanIterator::seek(BytesView target)
{
    cursor_ = Bytes(target < BytesView(start_) ? BytesView(start_)
                                                : target);
    status_ = Status::ok();
    fill();
}

void
ChunkedScanIterator::fill()
{
    count_ = 0;
    pos_ = 0;
    Status s = scan_(cursor_, end_, [this](BytesView k, BytesView v) {
        if (count_ == entries_.size())
            entries_.push_back({Bytes(), Bytes(), 0, EntryType::Put});
        InternalEntry &e = entries_[count_++];
        e.key.assign(k);
        e.value.assign(v);
        return count_ < chunk_;
    });
    if (!s.isOk()) {
        count_ = 0;
        status_ = std::move(s);
    }
}

void
ChunkedScanIterator::next()
{
    if (!valid())
        panic("ChunkedScanIterator::next on invalid iterator");
    if (++pos_ < count_ || count_ < chunk_)
        return;
    // A full chunk may have stopped short of the range's end: resume
    // at the smallest key strictly greater than the last one copied.
    cursor_.assign(entries_[count_ - 1].key);
    cursor_.push_back('\0');
    fill();
}

const InternalEntry &
ChunkedScanIterator::entry() const
{
    if (!valid())
        panic("ChunkedScanIterator::entry on invalid iterator");
    return entries_[pos_];
}

Status
scanIterator(InternalIterator &it, BytesView start,
             const ScanCallback &cb)
{
    for (it.seek(start); it.valid(); it.next()) {
        const InternalEntry &e = it.entry();
        if (!cb(e.key, e.value))
            return Status::ok();
    }
    return it.status();
}

} // namespace ethkv::kv
