// Seeded violations for snapshot_schema_lint.py section symmetry (fixture:
// linted, never built; the section checks run on the text engine, so this
// file does not need to compile standalone).
namespace {
constexpr unsigned kSectionAlpha = 1;
constexpr unsigned kSectionGhost = 2;
constexpr unsigned kSectionBorrowed = 3;
}  // namespace

void WriteSnapshot(SnapshotWriter& snap) {
  {
    auto& w = snap.AddSection(kSectionAlpha);
    w.PutU64(1);
    w.PutU32(2);
  }
  {
    // Seeded: this section has no Section(kSectionGhost) reader.
    auto& w = snap.AddSection(kSectionGhost);
    w.PutU64(3);
  }
  {
    // Seeded: a zero-copy u32 vector read back as a u16 vector.
    auto& w = snap.AddSection(kSectionBorrowed);
    w.PutU32VecRef(counts);
  }
}

bool ReadSnapshot(const SnapshotReader& snap) {
  unsigned long a = 0;
  unsigned b = 0;
  std::vector<unsigned short> narrow;
  {
    auto section = snap.Section(kSectionAlpha);
    auto& r = section.value();
    // Seeded: fields read back in the opposite order from the writer.
    if (!r.GetU32(&b)) {
      return false;
    }
    if (!r.GetU64(&a)) {
      return false;
    }
  }
  {
    auto section = snap.Section(kSectionBorrowed);
    auto& r = section.value();
    if (!r.GetU16Vec(&narrow)) {
      return false;
    }
  }
  return a != 0 && b != 0;
}
