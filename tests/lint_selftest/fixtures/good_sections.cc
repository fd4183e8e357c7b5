// Sanctioned idioms for snapshot_schema_lint.py section symmetry (fixture:
// linted, never built). A zero-copy Put<X>Ref writes the same bytes as
// Put<X>, so it pairs with the plain Get<X> reader.
namespace {
constexpr unsigned kSectionImage = 1;
}  // namespace

void WriteSnapshot(SnapshotWriter& snap) {
  {
    auto& w = snap.AddSection(kSectionImage);
    w.PutSizedBytesRef(contents);
    w.PutU64(7);
    w.PutU32VecRef(word_counts);
    w.PutU16VecRef(bit_counts);
  }
}

bool ReadSnapshot(const SnapshotReader& snap) {
  auto section = snap.Section(kSectionImage);
  auto& r = section.value();
  return r.GetSizedBytes(&contents).ok() && r.GetU64(&seven).ok() &&
         r.GetU32Vec(&word_counts).ok() && r.GetU16Vec(&bit_counts).ok();
}
