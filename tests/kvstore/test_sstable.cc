/**
 * @file
 * SSTable tests: write/read round trip across block boundaries,
 * point lookups, iterators, props, and format violations.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "common/varint.hh"
#include "kvstore/sstable.hh"
#include "test_util.hh"

namespace ethkv::kv
{
namespace
{

using testutil::ScratchDir;
using testutil::makeKey;
using testutil::makeValue;

std::string
writeTable(const std::string &path, uint64_t n,
           size_t value_len = 24)
{
    auto writer = SSTableWriter::create(path, n);
    EXPECT_TRUE(writer.ok());
    for (uint64_t i = 0; i < n; ++i) {
        InternalEntry e{makeKey(i), makeValue(i, value_len), i + 1,
                        i % 7 == 3 ? EntryType::Tombstone
                                   : EntryType::Put};
        if (e.type == EntryType::Tombstone)
            e.value.clear();
        EXPECT_TRUE(writer.value()->add(e).isOk());
    }
    EXPECT_TRUE(writer.value()->finish().isOk());
    return path;
}

TEST(SSTableTest, RoundTripSpansManyBlocks)
{
    ScratchDir dir("sst");
    std::string path = dir.path() + "/t.sst";
    const uint64_t n = 2000; // ~2000 * ~60B >> one 4 KiB block
    writeTable(path, n);

    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value()->props().entry_count, n);
    EXPECT_EQ(reader.value()->props().smallest_key, makeKey(0));
    EXPECT_EQ(reader.value()->props().largest_key, makeKey(n - 1));
    EXPECT_GT(reader.value()->props().tombstone_count, 0u);

    for (uint64_t i = 0; i < n; ++i) {
        InternalEntry e;
        ASSERT_TRUE(reader.value()->get(makeKey(i), e).isOk())
            << "missing key " << i;
        EXPECT_EQ(e.seq, i + 1);
        if (i % 7 == 3) {
            EXPECT_EQ(e.type, EntryType::Tombstone);
        } else {
            EXPECT_EQ(e.type, EntryType::Put);
            EXPECT_EQ(e.value, makeValue(i));
        }
    }
}

TEST(SSTableTest, AbsentKeysReturnNotFound)
{
    ScratchDir dir("sst");
    std::string path = writeTable(dir.path() + "/t.sst", 100);
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());

    InternalEntry e;
    // Before, between, and after existing keys.
    EXPECT_TRUE(reader.value()->get("aaa", e).isNotFound());
    EXPECT_TRUE(
        reader.value()->get(makeKey(5, "x"), e).isNotFound());
    EXPECT_TRUE(reader.value()->get("zzz", e).isNotFound());
}

TEST(SSTableTest, IteratorVisitsAllInOrder)
{
    ScratchDir dir("sst");
    const uint64_t n = 1500;
    std::string path = writeTable(dir.path() + "/t.sst", n);
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());

    auto it = reader.value()->newIterator();
    it->seek(BytesView());
    uint64_t count = 0;
    Bytes prev;
    while (it->valid()) {
        if (count > 0)
            EXPECT_LT(prev, it->entry().key);
        prev = it->entry().key;
        ++count;
        it->next();
    }
    EXPECT_EQ(count, n);
}

TEST(SSTableTest, IteratorSeekMidRange)
{
    ScratchDir dir("sst");
    std::string path = writeTable(dir.path() + "/t.sst", 1000);
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());

    auto it = reader.value()->newIterator();
    it->seek(makeKey(500));
    ASSERT_TRUE(it->valid());
    EXPECT_EQ(it->entry().key, makeKey(500));

    // Seek to a key between entries.
    it->seek(makeKey(500, "x"));
    ASSERT_TRUE(it->valid());
    EXPECT_EQ(it->entry().key, makeKey(501));

    it->seek(makeKey(999, "x"));
    EXPECT_FALSE(it->valid());
}

// In-place parsing still validates every entry of each block it
// reads: a corrupt entry header after the looked-up key fails the
// lookup with Corruption, and fails the iterator's block read.
TEST(SSTableTest, CorruptEntryAfterHitFailsWholeBlock)
{
    ScratchDir dir("sst");
    const uint64_t n = 200;
    std::string path = writeTable(dir.path() + "/t.sst", n);

    // Entry 5 of block 0 starts after entries 0-4, laid out as in
    // the writer: varint klen, varint vlen, type byte, varint seq,
    // key, value. Point at its type byte.
    size_t offset = 0;
    for (uint64_t i = 0; i < 5; ++i) {
        Bytes header;
        size_t vlen = i % 7 == 3 ? 0 : 24;
        appendVarint(header, makeKey(i).size());
        appendVarint(header, vlen);
        header.push_back('\0');
        appendVarint(header, i + 1);
        offset += header.size() + makeKey(i).size() + vlen;
    }
    Bytes lens;
    appendVarint(lens, makeKey(5).size());
    appendVarint(lens, 24);
    offset += lens.size();
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(static_cast<std::streamoff>(offset));
        ASSERT_EQ(f.get(), static_cast<int>(EntryType::Put));
        f.seekp(static_cast<std::streamoff>(offset));
        f.put('\x7f'); // no such entry type
    }

    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());
    InternalEntry e;
    EXPECT_EQ(reader.value()->get(makeKey(0), e).code(),
              StatusCode::Corruption);
    EXPECT_EQ(reader.value()->get(makeKey(4), e).code(),
              StatusCode::Corruption);
    // Blocks without the bad byte still serve.
    ASSERT_TRUE(reader.value()->get(makeKey(n - 2), e).isOk());
    EXPECT_EQ(e.value, makeValue(n - 2));

    EXPECT_DEATH(
        {
            auto it = reader.value()->newIterator();
            it->seek(makeKey(0));
        },
        "sstable iterator block read failed: Corruption");
}

TEST(SSTableTest, RejectsOutOfOrderKeys)
{
    ScratchDir dir("sst");
    auto writer = SSTableWriter::create(dir.path() + "/t.sst", 10);
    ASSERT_TRUE(writer.ok());
    InternalEntry a{"bbb", "1", 1, EntryType::Put};
    InternalEntry b{"aaa", "2", 2, EntryType::Put};
    InternalEntry dup{"bbb", "3", 3, EntryType::Put};
    EXPECT_TRUE(writer.value()->add(a).isOk());
    EXPECT_FALSE(writer.value()->add(b).isOk());
    EXPECT_FALSE(writer.value()->add(dup).isOk());
}

TEST(SSTableTest, OpenRejectsGarbageFile)
{
    ScratchDir dir("sst");
    std::string path = dir.path() + "/garbage.sst";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        Bytes junk(300, 'j');
        std::fwrite(junk.data(), 1, junk.size(), f);
        std::fclose(f);
    }
    EXPECT_FALSE(SSTableReader::open(path).ok());
}

TEST(SSTableTest, OpenRejectsTinyFile)
{
    ScratchDir dir("sst");
    std::string path = dir.path() + "/tiny.sst";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fwrite("xy", 1, 2, f);
        std::fclose(f);
    }
    EXPECT_FALSE(SSTableReader::open(path).ok());
}

TEST(SSTableTest, LargeValuesSpanBlocks)
{
    ScratchDir dir("sst");
    std::string path = dir.path() + "/big.sst";
    auto writer = SSTableWriter::create(path, 10);
    ASSERT_TRUE(writer.ok());
    for (uint64_t i = 0; i < 10; ++i) {
        // 20 KiB values: each entry larger than a block.
        InternalEntry e{makeKey(i), makeValue(i, 20000), i + 1,
                        EntryType::Put};
        ASSERT_TRUE(writer.value()->add(e).isOk());
    }
    ASSERT_TRUE(writer.value()->finish().isOk());

    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());
    for (uint64_t i = 0; i < 10; ++i) {
        InternalEntry e;
        ASSERT_TRUE(reader.value()->get(makeKey(i), e).isOk());
        EXPECT_EQ(e.value, makeValue(i, 20000));
    }
}

TEST(SSTableTest, BloomShortCircuitsAbsentKeys)
{
    ScratchDir dir("sst");
    std::string path = writeTable(dir.path() + "/t.sst", 500);
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());

    uint64_t before = reader.value()->bytesRead();
    int may = 0;
    for (uint64_t i = 0; i < 1000; ++i)
        may += reader.value()->mayContain(makeKey(i, "absent"));
    // Bloom checks read no blocks.
    EXPECT_EQ(reader.value()->bytesRead(), before);
    EXPECT_LT(may, 100);
}

} // namespace
} // namespace ethkv::kv
