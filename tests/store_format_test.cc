#include "store/format.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/walk_set.h"
#include "store/graph_store.h"
#include "store/sketch_store.h"
#include "test_fixtures.h"

namespace voteopt::store {
namespace {

class StoreFormatTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ::testing::TempDir() + "/format_test.bin"; }
  void TearDown() override { std::remove(path_.c_str()); }

  Status WriteSample() {
    payload_a_ = {1, 2, 3, 4, 5};
    payload_b_ = {0.5, -1.25};
    std::vector<SectionRef> sections;
    sections.push_back(
        MakeSection("alpha", std::span<const uint32_t>(payload_a_)));
    sections.push_back(
        MakeSection("beta", std::span<const double>(payload_b_)));
    return WriteSectionFile(path_, FileKind::kGraph, sections);
  }

  std::vector<uint8_t> ReadAll() {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    std::vector<uint8_t> bytes(static_cast<size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return bytes;
  }

  void WriteAll(const std::vector<uint8_t>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::vector<uint32_t> payload_a_;
  std::vector<double> payload_b_;
};

TEST_F(StoreFormatTest, RoundTripsSections) {
  ASSERT_TRUE(WriteSample().ok());
  for (const MappedFile::Mode mode :
       {MappedFile::Mode::kMmap, MappedFile::Mode::kCopy}) {
    auto file = MappedFile::Open(path_, mode);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto reader = SectionReader::Parse(*file, FileKind::kGraph);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();

    auto alpha = reader->Typed<uint32_t>("alpha");
    ASSERT_TRUE(alpha.ok());
    EXPECT_EQ(std::vector<uint32_t>(alpha->begin(), alpha->end()),
              payload_a_);
    auto beta = reader->Typed<double>("beta");
    ASSERT_TRUE(beta.ok());
    EXPECT_EQ(std::vector<double>(beta->begin(), beta->end()), payload_b_);
  }
}

TEST_F(StoreFormatTest, WritesAreDeterministic) {
  ASSERT_TRUE(WriteSample().ok());
  const std::vector<uint8_t> first = ReadAll();
  ASSERT_TRUE(WriteSample().ok());
  EXPECT_EQ(ReadAll(), first);
}

TEST_F(StoreFormatTest, MissingFileIsIOError) {
  auto file = MappedFile::Open(path_ + ".does-not-exist");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), Status::Code::kIOError);
}

TEST_F(StoreFormatTest, WrongMagicRejected) {
  ASSERT_TRUE(WriteSample().ok());
  auto bytes = ReadAll();
  bytes[0] = 'X';
  WriteAll(bytes);
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
}

TEST_F(StoreFormatTest, WrongKindRejected) {
  ASSERT_TRUE(WriteSample().ok());
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kSketch);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(StoreFormatTest, TruncatedHeaderRejected) {
  ASSERT_TRUE(WriteSample().ok());
  auto bytes = ReadAll();
  bytes.resize(10);
  WriteAll(bytes);
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
}

TEST_F(StoreFormatTest, TruncatedPayloadRejected) {
  ASSERT_TRUE(WriteSample().ok());
  auto bytes = ReadAll();
  bytes.resize(bytes.size() - 4);
  WriteAll(bytes);
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
}

TEST_F(StoreFormatTest, NoFlippedByteCorruptsPayloadsSilently) {
  ASSERT_TRUE(WriteSample().ok());
  const auto pristine = ReadAll();
  // Flip each byte in turn. A flip either fails Parse with a clean Status
  // (header/table/payload corruption) or — for don't-care bytes such as
  // alignment padding and the reserved header field — leaves every payload
  // byte-identical. Silently serving corrupted data is never acceptable.
  for (size_t i = 0; i < pristine.size(); ++i) {
    auto bytes = pristine;
    bytes[i] ^= 0xFF;
    WriteAll(bytes);
    auto file = MappedFile::Open(path_);
    ASSERT_TRUE(file.ok());
    auto reader = SectionReader::Parse(*file, FileKind::kGraph);
    if (!reader.ok()) continue;
    auto alpha = reader->Typed<uint32_t>("alpha");
    auto beta = reader->Typed<double>("beta");
    ASSERT_TRUE(alpha.ok() && beta.ok()) << "flip at byte " << i;
    EXPECT_EQ(std::vector<uint32_t>(alpha->begin(), alpha->end()), payload_a_)
        << "silent corruption from flip at byte " << i;
    EXPECT_EQ(std::vector<double>(beta->begin(), beta->end()), payload_b_)
        << "silent corruption from flip at byte " << i;
  }
}

TEST_F(StoreFormatTest, UnknownSectionIsNotFound) {
  ASSERT_TRUE(WriteSample().ok());
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_TRUE(reader.ok());
  auto missing = reader->Raw("gamma");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
}

TEST_F(StoreFormatTest, ElementSizeMismatchIsCorruption) {
  ASSERT_TRUE(WriteSample().ok());
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_TRUE(reader.ok());
  // "alpha" holds 20 bytes; not a multiple of sizeof(double).
  auto typed = reader->Typed<double>("alpha");
  ASSERT_FALSE(typed.ok());
  EXPECT_EQ(typed.status().code(), Status::Code::kCorruption);
}

// --- The out-of-core block kinds (kGraphBlock, kBlockManifest) go through
// the same container validation as every other kind; these pin the
// negative paths the sketch_ooc crash-consistency story relies on. ---

class BlockKindFormatTest : public StoreFormatTest {
 protected:
  Status WriteAs(FileKind kind) {
    payload_ = {10, 20, 30};
    std::vector<SectionRef> sections;
    sections.push_back(
        MakeSection("blockmeta", std::span<const uint64_t>(payload_)));
    return WriteSectionFile(path_, kind, sections);
  }
  std::vector<uint64_t> payload_;
};

TEST_F(BlockKindFormatTest, BlockAndManifestKindsAreNotInterchangeable) {
  ASSERT_TRUE(WriteAs(FileKind::kGraphBlock).ok());
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  // A block file is only a block file: every other expectation fails with
  // InvalidArgument (wrong kind), not Corruption (the file is intact).
  for (const FileKind other :
       {FileKind::kBlockManifest, FileKind::kGraph, FileKind::kSketch}) {
    auto reader = SectionReader::Parse(*file, other);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), Status::Code::kInvalidArgument);
  }
  EXPECT_TRUE(SectionReader::Parse(*file, FileKind::kGraphBlock).ok());
}

TEST_F(BlockKindFormatTest, ManifestKindIsAlsoExclusive) {
  ASSERT_TRUE(WriteAs(FileKind::kBlockManifest).ok());
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto as_block = SectionReader::Parse(*file, FileKind::kGraphBlock);
  ASSERT_FALSE(as_block.ok());
  EXPECT_EQ(as_block.status().code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(SectionReader::Parse(*file, FileKind::kBlockManifest).ok());
}

TEST_F(BlockKindFormatTest, WrongMagicRejected) {
  ASSERT_TRUE(WriteAs(FileKind::kGraphBlock).ok());
  auto bytes = ReadAll();
  bytes[3] ^= 0xFF;
  WriteAll(bytes);
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraphBlock);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
}

TEST_F(BlockKindFormatTest, VersionSkewRejected) {
  ASSERT_TRUE(WriteAs(FileKind::kBlockManifest).ok());
  auto bytes = ReadAll();
  // The format version is the uint32 at bytes [8, 12) of the header; a
  // future-version file must be rejected, never half-parsed.
  bytes[8] = static_cast<uint8_t>(kFormatVersion + 1);
  WriteAll(bytes);
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kBlockManifest);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
  EXPECT_NE(reader.status().ToString().find("version"), std::string::npos);
}

TEST_F(BlockKindFormatTest, PayloadChecksumMismatchRejected) {
  ASSERT_TRUE(WriteAs(FileKind::kGraphBlock).ok());
  const auto pristine = ReadAll();
  // Flip the last payload byte (the header and section table sit at the
  // front; the final bytes of the file are always payload).
  auto bytes = pristine;
  bytes[bytes.size() - 1] ^= 0xFF;
  WriteAll(bytes);
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraphBlock);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
}

TEST_F(StoreFormatTest, SectionNameTooLongRejectedOnWrite) {
  std::vector<SectionRef> sections;
  const uint32_t value = 7;
  sections.push_back({"this-name-is-way-too-long", &value, sizeof(value)});
  EXPECT_FALSE(WriteSectionFile(path_, FileKind::kGraph, sections).ok());
}

// --- Every store file is written to a temp sibling and renamed into place
// (WriteSectionFile); no path ever keeps a "<path>.tmp*" file behind. ---

void ExpectNoTempSiblings(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string temp_stem = target.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(temp_stem, 0), 0u)
        << "leftover temp file: " << entry.path();
  }
}

TEST_F(StoreFormatTest, SaveSketchOverExistingFileLeavesNoTempFiles) {
  core::WalkBuffer buffer;
  buffer.nodes = {0, 2, 3, 1, 2};
  buffer.lengths = {3, 2};
  core::WalkSet walks(4);
  walks.AddWalks(buffer);
  walks.Finalize({0.40, 0.80, 0.60, 0.90});
  SketchMeta meta;
  meta.theta = 2;
  meta.horizon = 3;
  meta.master_seed = 5;
  ASSERT_TRUE(SaveSketch(walks, meta, path_).ok());
  meta.master_seed = 6;
  ASSERT_TRUE(SaveSketch(walks, meta, path_).ok());
  ExpectNoTempSiblings(path_);
  auto loaded = LoadSketch(path_, SketchLoadMode::kCopy);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.master_seed, 6u);  // the second save replaced it
}

TEST_F(StoreFormatTest, SaveGraphOverExistingFileLeavesNoTempFiles) {
  const auto example = test::MakePaperExample();
  ASSERT_TRUE(WriteSample().ok());  // an unrelated file already sits there
  ASSERT_TRUE(SaveGraph(example.graph, path_).ok());
  ExpectNoTempSiblings(path_);
  auto loaded = LoadGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_edges(), example.graph.num_edges());
}

TEST_F(StoreFormatTest, FailedWriteLeavesNoTempFiles) {
  // A directory at the target path: the payload lands in the temp file,
  // then the rename fails — and the temp file must go with it.
  ASSERT_TRUE(std::filesystem::create_directory(path_));
  const Status written = WriteSample();
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(written.code(), Status::Code::kIOError) << written.ToString();
  ExpectNoTempSiblings(path_);
  EXPECT_TRUE(std::filesystem::is_directory(path_));
}

}  // namespace
}  // namespace voteopt::store
