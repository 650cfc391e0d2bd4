#include "kvstore/sstable.hh"

#include "common/logging.hh"
#include "common/varint.hh"

namespace ethkv::kv
{

namespace
{

constexpr uint64_t sstable_magic = 0x657468'6b76737374ULL;

void
appendEntry(Bytes &out, const InternalEntry &e)
{
    appendVarint(out, e.key.size());
    appendVarint(out, e.value.size());
    out.push_back(static_cast<char>(e.type));
    appendVarint(out, e.seq);
    out += e.key;
    out += e.value;
}

/** One data-block entry parsed in place: views into the block. */
struct EntryView
{
    BytesView key;
    BytesView value;
    uint64_t seq = 0;
    EntryType type = EntryType::Put;
};

/**
 * Parse the entry at @p pos and advance past it. Every entry a
 * reader hands out, and every entry of each block it reads, passes
 * these checks first.
 *
 * @return false if the bytes at @p pos are not a well-formed entry.
 */
bool
parseEntry(BytesView data, size_t &pos, EntryView &e)
{
    uint64_t klen, vlen;
    if (!readVarint(data, pos, klen))
        return false;
    if (!readVarint(data, pos, vlen))
        return false;
    if (pos >= data.size())
        return false;
    uint8_t type = static_cast<uint8_t>(data[pos++]);
    if (type > static_cast<uint8_t>(EntryType::Tombstone))
        return false;
    if (!readVarint(data, pos, e.seq))
        return false;
    if (klen > data.size() - pos || vlen > data.size() - pos - klen)
        return false;
    e.key = data.substr(pos, klen);
    pos += klen;
    e.value = data.substr(pos, vlen);
    pos += vlen;
    e.type = static_cast<EntryType>(type);
    return true;
}

/** Whether every entry of @p block parses. */
bool
wellFormedBlock(BytesView block)
{
    EntryView v;
    for (size_t pos = 0; pos < block.size();) {
        if (!parseEntry(block, pos, v))
            return false;
    }
    return true;
}

/** Copy a parsed entry out, reusing @p out's buffers. */
void
copyEntry(const EntryView &v, InternalEntry &out)
{
    out.key.assign(v.key);
    out.value.assign(v.value);
    out.seq = v.seq;
    out.type = v.type;
}

void
appendString(Bytes &out, BytesView s)
{
    appendVarint(out, s.size());
    out += s;
}

bool
readString(BytesView data, size_t &pos, Bytes &out)
{
    uint64_t len;
    if (!readVarint(data, pos, len))
        return false;
    if (pos + len > data.size())
        return false;
    out = Bytes(data.substr(pos, len));
    pos += len;
    return true;
}

} // namespace

// ---------------------------------------------------------------
// SSTableWriter
// ---------------------------------------------------------------

SSTableWriter::SSTableWriter(std::string path,
                             std::unique_ptr<WritableFile> file,
                             size_t expected_keys)
    : path_(std::move(path)), file_(std::move(file)),
      filter_(expected_keys)
{}

SSTableWriter::~SSTableWriter()
{
    if (file_) {
        ETHKV_IGNORE_STATUS(file_->close(),
                            "abandoned writer; the partial table is "
                            "never referenced by a manifest");
    }
}

Result<std::unique_ptr<SSTableWriter>>
SSTableWriter::create(const std::string &path, size_t expected_keys,
                      Env *env)
{
    if (!env)
        env = Env::defaultEnv();
    auto file = env->newWritableFile(path);
    if (!file.ok())
        return file.status();
    return std::unique_ptr<SSTableWriter>(
        new SSTableWriter(path, file.take(), expected_keys));
}

Status
SSTableWriter::add(const InternalEntry &entry)
{
    if (finished_)
        panic("SSTableWriter::add after finish");
    if (props_.entry_count > 0 &&
        BytesView(entry.key) <= BytesView(props_.largest_key)) {
        return Status::invalidArgument(
            "sstable: keys must be strictly ascending");
    }

    if (props_.entry_count == 0)
        props_.smallest_key = entry.key;
    props_.largest_key = entry.key;
    ++props_.entry_count;
    if (entry.type == EntryType::Tombstone)
        ++props_.tombstone_count;
    if (entry.seq > props_.max_seq)
        props_.max_seq = entry.seq;
    props_.data_bytes += entry.key.size() + entry.value.size();

    filter_.add(entry.key);
    appendEntry(block_, entry);
    block_last_key_ = entry.key;

    if (block_.size() >= block_target_bytes)
        return flushBlock();
    return Status::ok();
}

Status
SSTableWriter::flushBlock()
{
    if (block_.empty())
        return Status::ok();
    Status s = file_->append(block_);
    if (!s.isOk())
        return s;
    index_.push_back({block_last_key_, file_offset_, block_.size()});
    file_offset_ += block_.size();
    block_.clear();
    return Status::ok();
}

Status
SSTableWriter::finish()
{
    if (finished_)
        panic("SSTableWriter::finish called twice");
    Status s = flushBlock();
    if (!s.isOk())
        return s;

    Bytes filter_block = filter_.toBytes();
    uint64_t filter_off = file_offset_;

    Bytes index_block;
    for (const IndexEntry &ie : index_) {
        appendString(index_block, ie.last_key);
        appendVarint(index_block, ie.offset);
        appendVarint(index_block, ie.size);
    }
    uint64_t index_off = filter_off + filter_block.size();

    Bytes props_block;
    appendString(props_block, props_.smallest_key);
    appendString(props_block, props_.largest_key);
    appendVarint(props_block, props_.entry_count);
    appendVarint(props_block, props_.tombstone_count);
    appendVarint(props_block, props_.max_seq);
    appendVarint(props_block, props_.data_bytes);
    uint64_t props_off = index_off + index_block.size();

    Bytes tail;
    tail.reserve(filter_block.size() + index_block.size() +
                 props_block.size() + 56);
    tail += filter_block;
    tail += index_block;
    tail += props_block;
    appendBE64(tail, filter_off);
    appendBE64(tail, filter_block.size());
    appendBE64(tail, index_off);
    appendBE64(tail, index_block.size());
    appendBE64(tail, props_off);
    appendBE64(tail, props_block.size());
    appendBE64(tail, sstable_magic);

    s = file_->append(tail);
    if (!s.isOk())
        return s;
    file_offset_ += tail.size();

    s = file_->sync();
    if (!s.isOk())
        return s;
    s = file_->close();
    if (!s.isOk())
        return s;
    file_.reset();
    finished_ = true;
    return Status::ok();
}

// ---------------------------------------------------------------
// SSTableReader
// ---------------------------------------------------------------

SSTableReader::SSTableReader(std::string path,
                             std::unique_ptr<RandomAccessFile> file)
    : path_(std::move(path)), file_(std::move(file))
{}

SSTableReader::~SSTableReader() = default;

Result<std::unique_ptr<SSTableReader>>
SSTableReader::open(const std::string &path, Env *env)
{
    if (!env)
        env = Env::defaultEnv();
    auto file = env->newRandomAccessFile(path);
    if (!file.ok())
        return file.status();
    auto size = env->fileSize(path);
    if (!size.ok())
        return size.status();
    auto reader = std::unique_ptr<SSTableReader>(
        new SSTableReader(path, file.take()));
    Status s = reader->load(size.value());
    if (!s.isOk())
        return s;
    return reader;
}

Status
SSTableReader::load(uint64_t file_bytes)
{
    if (file_bytes < 56)
        return Status::corruption("sstable: file too small");
    file_bytes_ = file_bytes;

    Bytes footer;
    Status fs = file_->read(file_bytes_ - 56, 56, footer);
    if (!fs.isOk())
        return fs;
    uint64_t filter_off = decodeBE64(BytesView(footer).substr(0, 8));
    uint64_t filter_len = decodeBE64(BytesView(footer).substr(8, 8));
    uint64_t index_off = decodeBE64(BytesView(footer).substr(16, 8));
    uint64_t index_len = decodeBE64(BytesView(footer).substr(24, 8));
    uint64_t props_off = decodeBE64(BytesView(footer).substr(32, 8));
    uint64_t props_len = decodeBE64(BytesView(footer).substr(40, 8));
    uint64_t magic = decodeBE64(BytesView(footer).substr(48, 8));
    if (magic != sstable_magic)
        return Status::corruption("sstable: bad magic");
    if (props_off + props_len + 56 != file_bytes_ ||
        index_off + index_len != props_off ||
        filter_off + filter_len != index_off) {
        return Status::corruption("sstable: inconsistent footer");
    }

    auto read_section = [&](uint64_t off, uint64_t len,
                            Bytes &out) -> Status {
        Status s = file_->read(off, len, out);
        if (!s.isOk())
            return s;
        bytes_read_.fetch_add(len, std::memory_order_relaxed);
        return Status::ok();
    };

    Bytes filter_block, index_block, props_block;
    Status s = read_section(filter_off, filter_len, filter_block);
    if (!s.isOk())
        return s;
    s = read_section(index_off, index_len, index_block);
    if (!s.isOk())
        return s;
    s = read_section(props_off, props_len, props_block);
    if (!s.isOk())
        return s;

    filter_ = std::make_unique<BloomFilter>(
        BloomFilter::fromBytes(filter_block));

    size_t pos = 0;
    while (pos < index_block.size()) {
        IndexEntry ie;
        uint64_t off, len;
        if (!readString(index_block, pos, ie.last_key) ||
            !readVarint(index_block, pos, off) ||
            !readVarint(index_block, pos, len)) {
            return Status::corruption("sstable: bad index block");
        }
        ie.offset = off;
        ie.size = len;
        index_.push_back(std::move(ie));
    }

    pos = 0;
    if (!readString(props_block, pos, props_.smallest_key) ||
        !readString(props_block, pos, props_.largest_key) ||
        !readVarint(props_block, pos, props_.entry_count) ||
        !readVarint(props_block, pos, props_.tombstone_count) ||
        !readVarint(props_block, pos, props_.max_seq) ||
        !readVarint(props_block, pos, props_.data_bytes)) {
        return Status::corruption("sstable: bad props block");
    }
    return Status::ok();
}

bool
SSTableReader::mayContain(BytesView key) const
{
    return filter_->mayContain(key);
}

int
SSTableReader::findBlock(BytesView target) const
{
    // First block whose last_key >= target.
    size_t lo = 0, hi = index_.size();
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (BytesView(index_[mid].last_key) < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo == index_.size() ? -1 : static_cast<int>(lo);
}

Status
SSTableReader::readBlock(size_t block_idx, Bytes &block)
{
    if (block_idx >= index_.size())
        panic("sstable: block index out of range");
    const IndexEntry &ie = index_[block_idx];
    // Fit a reused buffer to this block: growing it in place may
    // double its capacity, and keeping a large block's capacity for
    // the small blocks after it would pin that memory for as long as
    // the iterator lives (a whole compaction, for its inputs).
    if (block.capacity() < ie.size || block.capacity() > 2 * ie.size)
        Bytes().swap(block);
    Status s = file_->read(ie.offset, ie.size, block);
    if (!s.isOk())
        return s;
    bytes_read_.fetch_add(ie.size, std::memory_order_relaxed);
    return Status::ok();
}

Status
SSTableReader::get(BytesView key, InternalEntry &entry)
{
    if (!mayContain(key))
        return Status::notFound();
    if (key < BytesView(props_.smallest_key) ||
        key > BytesView(props_.largest_key)) {
        return Status::notFound();
    }
    int idx = findBlock(key);
    if (idx < 0)
        return Status::notFound();

    Bytes block;
    Status s = readBlock(static_cast<size_t>(idx), block);
    if (!s.isOk())
        return s;
    // One pass over the raw block: every entry is validated, even
    // past the hit, and only the hit is copied out.
    EntryView v, hit;
    bool found = false;
    for (size_t pos = 0; pos < block.size();) {
        if (!parseEntry(block, pos, v))
            return Status::corruption("sstable: bad block entry");
        if (!found && v.key == key) {
            hit = v;
            found = true;
        }
    }
    if (!found)
        return Status::notFound();
    copyEntry(hit, entry);
    return Status::ok();
}

/**
 * Cursor over one SSTable: walks blocks sequentially, reading each
 * into one reused buffer, validating all of it, and then parsing
 * entries in place as the cursor advances.
 */
class SSTableIterator : public InternalIterator
{
  public:
    explicit SSTableIterator(SSTableReader *reader) : reader_(reader)
    {}

    void
    seek(BytesView target) override
    {
        valid_ = false;
        if (reader_->index_.empty())
            return;
        int idx = reader_->findBlock(target);
        if (idx < 0) {
            block_idx_ = reader_->index_.size();
            return;
        }
        block_idx_ = static_cast<size_t>(idx);
        loadBlock();
        // Skip the block's keys below target without copying them.
        EntryView v;
        for (size_t at = pos_; at < block_.size(); pos_ = at) {
            parseEntry(block_, at, v); // validated by loadBlock
            if (v.key >= target)
                break;
        }
        advance();
    }

    bool valid() const override { return valid_; }

    void
    next() override
    {
        if (!valid_)
            panic("SSTableIterator::next on invalid iterator");
        advance();
    }

    const InternalEntry &
    entry() const override
    {
        if (!valid_)
            panic("SSTableIterator::entry on invalid iterator");
        return entry_;
    }

  private:
    void
    loadBlock()
    {
        // Validate the whole block up front, as a full decode would,
        // so the in-place parsing below never meets a bad entry.
        Status s = reader_->readBlock(block_idx_, block_);
        if (s.isOk() && !wellFormedBlock(block_))
            s = Status::corruption("sstable: bad block entry");
        s.expectOk("sstable iterator block read");
        pos_ = 0;
    }

    /** Make the entry at pos_ current, moving to the next block
     *  when this one is used up. */
    void
    advance()
    {
        while (pos_ >= block_.size()) {
            if (++block_idx_ >= reader_->index_.size()) {
                valid_ = false;
                return;
            }
            loadBlock();
        }
        EntryView v;
        parseEntry(block_, pos_, v);
        copyEntry(v, entry_);
        valid_ = true;
    }

    SSTableReader *reader_;
    size_t block_idx_ = 0;
    Bytes block_;      //!< Raw bytes of block block_idx_.
    size_t pos_ = 0;   //!< Offset of the next unparsed entry.
    InternalEntry entry_{Bytes(), Bytes(), 0, EntryType::Put};
    bool valid_ = false;
};

std::unique_ptr<InternalIterator>
SSTableReader::newIterator()
{
    return std::make_unique<SSTableIterator>(this);
}

} // namespace ethkv::kv
