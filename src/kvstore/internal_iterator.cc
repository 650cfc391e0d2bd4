#include "kvstore/internal_iterator.hh"

#include "common/logging.hh"

namespace ethkv::kv
{

MergingIterator::MergingIterator(
    std::vector<std::unique_ptr<InternalIterator>> sources)
    : sources_(std::move(sources)), keys_(sources_.size()),
      live_(sources_.size(), 0)
{}

void
MergingIterator::seek(BytesView target)
{
    status_ = Status::ok();
    for (size_t i = 0; i < sources_.size(); ++i) {
        sources_[i]->seek(target);
        refresh(i);
    }
    findCurrent();
}

void
MergingIterator::refresh(size_t i)
{
    InternalIterator &src = *sources_[i];
    live_[i] = src.valid();
    if (live_[i]) {
        keys_[i] = src.entry().key;
    } else if (status_.isOk()) {
        // An exhausted source is fine; a failed one ends the stream,
        // since its missing keys would leave a hole.
        status_ = src.status();
    }
}

void
MergingIterator::findCurrent()
{
    entry_ = nullptr;
    if (!status_.isOk())
        return;
    // Pick the smallest key; among equals the newest source (lowest
    // index) wins, and `shadowed` notes that an older source holds
    // the same key.
    bool found = false;
    bool shadowed = false;
    for (size_t i = 0; i < sources_.size(); ++i) {
        if (!live_[i])
            continue;
        if (!found) {
            found = true;
            current_ = i;
            continue;
        }
        int c = keys_[i].compare(keys_[current_]);
        if (c < 0) {
            current_ = i;
            shadowed = false;
        } else if (c == 0) {
            shadowed = true;
        }
    }
    if (!found)
        return;
    // Skip shadowed duplicates in older sources.
    if (shadowed) {
        BytesView best = keys_[current_];
        for (size_t i = current_ + 1; i < sources_.size(); ++i) {
            while (live_[i] && keys_[i] == best) {
                sources_[i]->next();
                refresh(i);
            }
        }
    }
    if (status_.isOk())
        entry_ = &sources_[current_]->entry();
}

bool
MergingIterator::valid() const
{
    return entry_ != nullptr;
}

void
MergingIterator::next()
{
    if (entry_ == nullptr)
        panic("MergingIterator::next on invalid iterator");
    sources_[current_]->next();
    refresh(current_);
    findCurrent();
}

const InternalEntry &
MergingIterator::entry() const
{
    if (entry_ == nullptr)
        panic("MergingIterator::entry on invalid iterator");
    return *entry_;
}

} // namespace ethkv::kv
