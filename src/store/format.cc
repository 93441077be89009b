#include "store/format.h"

#include <bit>
#include <cstring>
#include <fstream>

#include "util/atomic_file.h"

#if defined(__unix__) || defined(__APPLE__)
#define VOTEOPT_STORE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace voteopt::store {

namespace {

// On-disk structures. All fields are naturally aligned, so the in-memory
// layout matches the packed on-disk layout byte for byte.
struct FileHeaderDisk {
  char magic[8];
  uint32_t version;
  uint32_t kind;
  uint32_t num_sections;
  uint32_t reserved;
  uint64_t table_checksum;
};
static_assert(sizeof(FileHeaderDisk) == 32);

struct SectionEntryDisk {
  char name[16];  // NUL-padded
  uint64_t offset;
  uint64_t size;
  uint64_t checksum;
};
static_assert(sizeof(SectionEntryDisk) == 40);

constexpr uint32_t kMaxSections = 64;  // sanity bound, far above real use

uint64_t Align8(uint64_t offset) { return (offset + 7) & ~uint64_t{7}; }

Status CheckLittleEndian() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::FailedPrecondition(
        "voteopt store files are little-endian; big-endian hosts are "
        "unsupported");
  }
  return Status::OK();
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

Status WriteSectionFile(const std::string& path, FileKind kind,
                        const std::vector<SectionRef>& sections) {
  VOTEOPT_RETURN_IF_ERROR(CheckLittleEndian());
  if (sections.size() > kMaxSections) {
    return Status::InvalidArgument("too many sections");
  }
  for (const SectionRef& section : sections) {
    if (section.name.empty() || section.name.size() > kMaxSectionName) {
      return Status::InvalidArgument("bad section name '" + section.name +
                                     "'");
    }
    if (section.size > 0 && section.data == nullptr) {
      return Status::InvalidArgument("section '" + section.name +
                                     "' has size but no data");
    }
  }

  // Lay out the table first: payloads start 8-aligned after it.
  const uint64_t table_begin = sizeof(FileHeaderDisk);
  const uint64_t payload_begin =
      Align8(table_begin + sections.size() * sizeof(SectionEntryDisk));
  std::vector<SectionEntryDisk> table(sections.size());
  uint64_t offset = payload_begin;
  for (size_t i = 0; i < sections.size(); ++i) {
    SectionEntryDisk& entry = table[i];
    std::memset(entry.name, 0, sizeof(entry.name));
    std::memcpy(entry.name, sections[i].name.data(), sections[i].name.size());
    entry.offset = offset;
    entry.size = sections[i].size;
    entry.checksum = Fnv1a64(sections[i].data, sections[i].size);
    offset = Align8(offset + entry.size);
  }

  FileHeaderDisk header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.kind = static_cast<uint32_t>(kind);
  header.num_sections = static_cast<uint32_t>(sections.size());
  header.reserved = 0;
  header.table_checksum =
      Fnv1a64(table.data(), table.size() * sizeof(SectionEntryDisk));

  return WriteFileAtomic(path, [&](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(table.data()),
              static_cast<std::streamsize>(table.size() *
                                           sizeof(SectionEntryDisk)));
    uint64_t written = payload_begin;
    static constexpr char kPad[8] = {0};
    // The gap between the table and the first (8-aligned) payload.
    out.write(kPad, static_cast<std::streamsize>(
                        payload_begin - table_begin -
                        sections.size() * sizeof(SectionEntryDisk)));
    for (size_t i = 0; i < sections.size(); ++i) {
      out.write(static_cast<const char*>(sections[i].data),
                static_cast<std::streamsize>(sections[i].size));
      written += sections[i].size;
      const uint64_t padded = Align8(written);
      out.write(kPad, static_cast<std::streamsize>(padded - written));
      written = padded;
    }
  });
}

MappedFile::~MappedFile() {
#ifdef VOTEOPT_STORE_HAVE_MMAP
  if (mmapped_ && data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
#endif
}

Result<std::shared_ptr<MappedFile>> MappedFile::Open(const std::string& path,
                                                     Mode mode) {
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
#ifdef VOTEOPT_STORE_HAVE_MMAP
  if (mode == Mode::kMmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IOError("cannot open " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IOError("cannot stat " + path);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size > 0) {
      void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base == MAP_FAILED) {
        ::close(fd);
        return Status::IOError("mmap failed for " + path);
      }
      file->data_ = static_cast<const uint8_t*>(base);
      file->mmapped_ = true;
    }
    file->size_ = size;
    ::close(fd);  // the mapping keeps the inode alive
    return file;
  }
#else
  (void)mode;
#endif
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  file->heap_.resize(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(file->heap_.data()), size)) {
    return Status::IOError("read failed for " + path);
  }
  file->data_ = file->heap_.data();
  file->size_ = file->heap_.size();
  return file;
}

Result<SectionReader> SectionReader::Parse(
    std::shared_ptr<const MappedFile> file, FileKind expected_kind) {
  VOTEOPT_RETURN_IF_ERROR(CheckLittleEndian());
  if (file == nullptr) return Status::InvalidArgument("null file");
  const uint8_t* data = file->data();
  const size_t size = file->size();
  if (size < sizeof(FileHeaderDisk)) {
    return Status::Corruption("file too small for a store header");
  }
  FileHeaderDisk header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic: not a voteopt store file");
  }
  if (header.version != kFormatVersion) {
    return Status::Corruption("unsupported store format version " +
                              std::to_string(header.version));
  }
  if (header.kind != static_cast<uint32_t>(expected_kind)) {
    return Status::InvalidArgument(
        "store file kind mismatch (expected " +
        std::to_string(static_cast<uint32_t>(expected_kind)) + ", found " +
        std::to_string(header.kind) + ")");
  }
  if (header.num_sections > kMaxSections) {
    return Status::Corruption("implausible section count");
  }
  const uint64_t table_bytes =
      uint64_t{header.num_sections} * sizeof(SectionEntryDisk);
  if (sizeof(FileHeaderDisk) + table_bytes > size) {
    return Status::Corruption("truncated section table");
  }
  const uint8_t* table_base = data + sizeof(FileHeaderDisk);
  if (Fnv1a64(table_base, table_bytes) != header.table_checksum) {
    return Status::Corruption("section table checksum mismatch");
  }

  SectionReader reader;
  reader.file_ = std::move(file);
  reader.entries_.reserve(header.num_sections);
  for (uint32_t i = 0; i < header.num_sections; ++i) {
    SectionEntryDisk entry;
    std::memcpy(&entry, table_base + i * sizeof(SectionEntryDisk),
                sizeof(entry));
    if (entry.name[sizeof(entry.name) - 1] != '\0') {
      return Status::Corruption("unterminated section name");
    }
    const std::string name(entry.name);
    if (entry.offset % 8 != 0) {
      return Status::Corruption("section '" + name + "' is misaligned");
    }
    if (entry.offset > size || entry.size > size - entry.offset) {
      return Status::Corruption("section '" + name +
                                "' extends past end of file");
    }
    if (Fnv1a64(data + entry.offset, entry.size) != entry.checksum) {
      return Status::Corruption("section '" + name + "' checksum mismatch");
    }
    reader.entries_.push_back({name, entry.offset, entry.size});
  }
  return reader;
}

Result<std::span<const uint8_t>> SectionReader::Raw(
    const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) {
      return std::span<const uint8_t>(file_->data() + entry.offset,
                                      entry.size);
    }
  }
  return Status::NotFound("section '" + name + "' not present");
}

}  // namespace voteopt::store
