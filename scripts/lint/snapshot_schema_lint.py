#!/usr/bin/env python3
"""Snapshot-schema symmetry lint: every byte written is a byte read back.

The persistence layer has two failure modes no test catches reliably:

  * **Asymmetry**: a codec writes a field the reader never consumes (or
    reads them back in a different order). Round-trip tests of the current
    build pass -- both sides share the bug -- and the break surfaces only
    when an *old* snapshot meets a *new* binary.
  * **Silent format drift**: a codec changes shape but the snapshot /
    manifest version constants stay put, so an incompatible old file is
    parsed as if it were current, yielding garbage instead of the clean
    "version mismatch" error the container layer owes the operator.

Two rules close them:

  C1 (symmetry). For every `Encode<Name>` in the store codec there is a
      `Decode<Name>`, and their normalized codec-call sequences match
      element for element (PutU64<->GetU64, nested Encode<->Decode, in
      order; a zero-copy Put<X>Ref counts as Put<X>). The same holds per snapshot section: each
      `AddSection(kSectionX)` write block against its `Section(kSectionX)`
      read block, and the sharded manifest likewise.

  C2 (fingerprint gate). A sha256 over all normalized sequences -- codec
      pairs, snapshot sections, manifest, plus the *asymmetric-by-design*
      surfaces (op-log framing, snapshot container framing), which C1
      cannot pair -- is committed next to this script together with the
      version constants. If the schema hash moves while kSnapshotVersion
      and kManifestVersion both stand still, the lint fails: bump the
      owning version, then rerun with --update to re-commit the baseline.

Usage:
  python3 scripts/lint/snapshot_schema_lint.py [--root DIR] [--update]
      [--engine auto|ast|text] [--build-dir DIR]
      [--codec FILE] [--sections FILE ...] [--versions-from FILE ...]
      [--fingerprint FILE] [--no-fingerprint]

The overrides exist for the self-test fixtures: a seeded-violation codec
file is linted in isolation with `--codec FILE --no-fingerprint`.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_framework as fw  # noqa: E402

DEFAULT_CODEC = os.path.join("src", "persist", "store_codec.cc")
DEFAULT_SECTIONS = (os.path.join("src", "core", "pnw_store.cc"),
                    os.path.join("src", "core", "sharded_store.cc"))
DEFAULT_FRAMING = (os.path.join("src", "persist", "op_log.cc"),
                   os.path.join("src", "persist", "snapshot.cc"))
DEFAULT_VERSION_HEADERS = (os.path.join("src", "core", "pnw_store.h"),
                           os.path.join("src", "core", "sharded_store.h"),
                           os.path.join("src", "persist", "snapshot.h"))
DEFAULT_FINGERPRINT = os.path.join("scripts", "lint",
                                   "snapshot_schema.fingerprint")

VERSION_CONSTANTS = ("kSnapshotVersion", "kManifestVersion",
                     "kSnapshotContainerVersion")
# Constants whose bump legitimizes a schema change (the container version
# governs framing, not payload schema).
PAYLOAD_VERSIONS = ("kSnapshotVersion", "kManifestVersion")

# Write-side codec calls: Put* through the section/buffer writer `w`, and
# nested Encode* helpers (optionally namespace-qualified).
_PUT_RE = re.compile(r"\bw\s*\.\s*(Put\w+)\s*\(")
_ENCODE_RE = re.compile(r"\b(?:[A-Za-z_]\w*::)*(Encode\w+)\s*\(")
# Read-side: Get* through the reader `r` or a `section.value()`-style
# temporary, and nested Decode* helpers.
_GET_RE = re.compile(
    r"\b(?:r|[A-Za-z_]\w*\s*\.\s*value\s*\(\s*\))\s*\.\s*(Get\w+)\s*\(")
_DECODE_RE = re.compile(r"\b(?:[A-Za-z_]\w*::)*(Decode\w+)\s*\(")
# Framing files write/read through assorted local buffers; receiver-blind
# on purpose (fingerprint input only, never paired).
_ANY_CODEC_RE = re.compile(
    r"\b[A-Za-z_]\w*\s*\.\s*((?:Put|Get)\w+)\s*\(")

_ADD_SECTION_RE = re.compile(r"\bAddSection\s*\(\s*(k\w+)")
_READ_SECTION_RE = re.compile(r"\b(?<!Add)(?:\w+\s*\.\s*)?Section\s*\(\s*(k\w+)")


def normalize(name):
    """Map a call name onto its canonical write-side form: a read-side
    Get*/Decode* onto its Put*/Encode* counterpart, and a zero-copy
    Put<X>Ref (BufferWriter's borrowed-payload form, same bytes on disk)
    onto Put<X>."""
    if name.startswith("Get"):
        return "Put" + name[3:]
    if name.startswith("Decode"):
        return "Encode" + name[6:]
    if name.startswith("Put") and name.endswith("Ref"):
        return name[:-3]
    return name


def calls_in(stripped, start, end, regexes):
    """Ordered (pos, name) of calls matching any regex in the span."""
    out = []
    for regex in regexes:
        for match in regex.finditer(stripped, start, end):
            out.append((match.start(1), match.group(1)))
    out.sort()
    return out


def enclosing_block(stripped, pos):
    """(open, close) of the innermost brace block containing `pos`."""
    depth = 0
    i = pos
    while i >= 0:
        c = stripped[i]
        if c == "}":
            depth += 1
        elif c == "{":
            if depth == 0:
                close = fw.match_brace(stripped, i)
                return (i, close if close > 0 else len(stripped))
            depth -= 1
        i -= 1
    return (0, len(stripped))


def codec_pairs_text(stripped):
    """{name: (encode_seq, decode_seq, encode_line, decode_line)} for every
    Encode<Name>/Decode<Name> definition pair (text engine)."""
    pairs = {}
    for kind in ("Encode", "Decode"):
        for match in re.finditer(r"\b(" + kind + r"\w+)\s*\(", stripped):
            full = match.group(1)
            name = full[len(kind):]
            for start, end, line in fw.find_function_bodies(stripped, full):
                if kind == "Encode":
                    seq = [normalize(n) for _, n in calls_in(
                        stripped, start, end, (_PUT_RE, _ENCODE_RE))]
                else:
                    seq = [normalize(n) for _, n in calls_in(
                        stripped, start, end, (_GET_RE, _DECODE_RE))]
                entry = pairs.setdefault(name, {})
                entry[kind] = (seq, line)
    return pairs


def codec_pairs_ast(ast, path):
    """Same shape as codec_pairs_text, but call order comes from clang."""
    names_re = re.compile(r"^(?:Put|Get|Encode|Decode)\w+$")
    pairs = {}
    for fn in ast.function_cursors(path):
        spelling = fn.spelling
        for kind in ("Encode", "Decode"):
            if not spelling.startswith(kind):
                continue
            seq = [normalize(c) for c, _ in ast.call_sequence(fn, names_re)]
            entry = pairs.setdefault(spelling[len(kind):], {})
            entry[kind] = (seq, fn.location.line)
            break
    return pairs


def check_codec_pairs(pairs, rel, diagnostics):
    for name in sorted(pairs):
        entry = pairs[name]
        if "Encode" not in entry:
            _, line = entry["Decode"]
            diagnostics.append(fw.Diagnostic(
                rel, line,
                f"Decode{name} has no matching Encode{name} -- dead reader "
                f"or missing writer"))
            continue
        if "Decode" not in entry:
            _, line = entry["Encode"]
            diagnostics.append(fw.Diagnostic(
                rel, line,
                f"Encode{name} has no matching Decode{name} -- bytes "
                f"written that nothing reads back"))
            continue
        write_seq, wline = entry["Encode"]
        read_seq, _ = entry["Decode"]
        if write_seq != read_seq:
            diagnostics.append(fw.Diagnostic(
                rel, wline,
                f"Encode{name}/Decode{name} sequences diverge: "
                f"writes {write_seq} but reads back {read_seq}"))


def section_blocks(stripped, pattern, call_regexes, normalize_names):
    """{section_constant: (seq, line)} for each Add/read Section block.

    A block runs from the Section() call to the end of its innermost
    enclosing brace block, clipped at the next Section() call -- tight
    `{ auto& w = snap.AddSection(...); ... }` blocks and loose
    one-section-per-function bodies both resolve correctly.
    """
    matches = list(pattern.finditer(stripped))
    blocks = {}
    for i, match in enumerate(matches):
        ident = match.group(1)
        _, block_end = enclosing_block(stripped, match.start())
        end = block_end
        if i + 1 < len(matches):
            end = min(end, matches[i + 1].start())
        seq = [n for _, n in calls_in(stripped, match.end(), end,
                                      call_regexes)]
        if normalize_names:
            seq = [normalize(n) for n in seq]
        if ident not in blocks:  # first occurrence wins (defines the schema)
            blocks[ident] = (seq, fw.line_of(stripped, match.start()))
    return blocks


def check_sections(path, root, diagnostics):
    """C1 over one file's AddSection/Section blocks; returns the write
    schema for the fingerprint."""
    rel = fw.rel_path(path, root)
    stripped = fw.strip_comments(fw.read_text(path))
    writes = section_blocks(stripped, _ADD_SECTION_RE,
                            (_PUT_RE, _ENCODE_RE), True)
    reads = section_blocks(stripped, _READ_SECTION_RE,
                           (_GET_RE, _DECODE_RE), True)
    for ident in sorted(set(writes) | set(reads)):
        if ident not in reads:
            seq, line = writes[ident]
            diagnostics.append(fw.Diagnostic(
                rel, line,
                f"section {ident} is written but never read back -- no "
                f"Section({ident}) consumer in this file"))
            continue
        if ident not in writes:
            seq, line = reads[ident]
            diagnostics.append(fw.Diagnostic(
                rel, line,
                f"section {ident} is read but never written -- no "
                f"AddSection({ident}) producer in this file"))
            continue
        write_seq, line = writes[ident]
        read_seq, _ = reads[ident]
        if write_seq != read_seq:
            diagnostics.append(fw.Diagnostic(
                rel, line,
                f"section {ident} write/read sequences diverge: writes "
                f"{write_seq} but reads back {read_seq}"))
    return {ident: seq for ident, (seq, _) in sorted(writes.items())}


def parse_versions(paths, root):
    """{constant: value} from `constexpr uint32_t kFoo = N;` declarations."""
    versions = {}
    for path in paths:
        stripped = fw.strip_comments(fw.read_text(path))
        for constant in VERSION_CONSTANTS:
            match = re.search(
                r"\b" + constant + r"\s*=\s*(\d+)\s*[;,]", stripped)
            if match:
                versions[constant] = int(match.group(1))
    missing = [c for c in VERSION_CONSTANTS if c not in versions]
    if missing:
        raise fw.LintError(
            f"version constant(s) {', '.join(missing)} not found in "
            f"{', '.join(fw.rel_path(p, root) for p in paths)}")
    return versions


def framing_sequences(paths, root):
    """Whole-file ordered Put*/Get* sequences of the asymmetric framing
    surfaces (fingerprint input: any reorder or add/remove moves the hash)."""
    out = {}
    for path in paths:
        stripped = fw.strip_comments(fw.read_text(path))
        out[fw.rel_path(path, root)] = [
            n for _, n in calls_in(stripped, 0, len(stripped),
                                   (_ANY_CODEC_RE,))]
    return out


def check_fingerprint(schema, versions, fp_path, root, update, diagnostics):
    rel = fw.rel_path(fp_path, root)
    current = {
        "schema_sha256": fw.stable_fingerprint(schema),
        **{c: str(versions[c]) for c in VERSION_CONSTANTS},
    }
    if update:
        fw.write_keyvalue_file(fp_path, (
            "Committed snapshot-schema baseline; maintained by",
            "scripts/lint/snapshot_schema_lint.py.",
            "Regenerate with:  python3 scripts/lint/snapshot_schema_lint.py "
            "--update",
            "A schema_sha256 change without a kSnapshotVersion/"
            "kManifestVersion bump fails CI.",
        ), current)
        return
    committed = fw.load_keyvalue_file(fp_path)
    if committed is None:
        diagnostics.append(fw.Diagnostic(
            rel, 1,
            "committed schema fingerprint is missing -- run with --update "
            "to create it"))
        return
    if committed.get("schema_sha256") == current["schema_sha256"]:
        stale = [c for c in VERSION_CONSTANTS
                 if committed.get(c) != current[c]]
        if stale:
            diagnostics.append(fw.Diagnostic(
                rel, 1,
                f"version constant(s) {', '.join(stale)} changed without a "
                f"schema change -- rerun with --update to re-commit the "
                f"baseline"))
        return
    bumped = [c for c in PAYLOAD_VERSIONS
              if committed.get(c) != current[c]]
    if not bumped:
        diagnostics.append(fw.Diagnostic(
            rel, 1,
            "serialized schema changed but neither kSnapshotVersion nor "
            "kManifestVersion was bumped -- old files would decode as "
            "garbage instead of failing the version check; bump the owning "
            "version constant, then rerun with --update"))
    else:
        diagnostics.append(fw.Diagnostic(
            rel, 1,
            f"serialized schema changed ({', '.join(bumped)} bumped) -- "
            f"rerun with --update to re-commit the baseline"))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None)
    parser.add_argument("--codec", default=None,
                        help="codec translation unit (default store_codec.cc)")
    parser.add_argument("--sections", nargs="*", default=None,
                        help="files holding AddSection/Section blocks")
    parser.add_argument("--versions-from", nargs="*", default=None,
                        help="headers declaring the version constants")
    parser.add_argument("--fingerprint", default=None,
                        help="committed baseline file")
    parser.add_argument("--no-fingerprint", action="store_true",
                        help="skip the baseline gate (fixture mode)")
    parser.add_argument("--update", action="store_true",
                        help="re-commit the baseline from the current tree")
    fw.add_engine_argument(parser)
    args = parser.parse_args()
    root = os.path.abspath(args.root or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))

    codec = os.path.abspath(args.codec or os.path.join(root, DEFAULT_CODEC))
    sections = [os.path.abspath(p) for p in (
        args.sections if args.sections is not None
        else [os.path.join(root, p) for p in DEFAULT_SECTIONS])]
    fp_path = os.path.abspath(
        args.fingerprint or os.path.join(root, DEFAULT_FINGERPRINT))

    try:
        engine = fw.resolve_engine(args.engine)
        diagnostics = []

        if engine == "ast":
            ast = fw.make_ast_engine(root, args.build_dir)
            pairs = codec_pairs_ast(ast, codec)
        else:
            pairs = codec_pairs_text(fw.strip_comments(fw.read_text(codec)))
        check_codec_pairs(pairs, fw.rel_path(codec, root), diagnostics)

        schema = {"codec": {
            name: entry["Encode"][0]
            for name, entry in sorted(pairs.items()) if "Encode" in entry}}
        for path in sections:
            schema[fw.rel_path(path, root)] = check_sections(
                path, root, diagnostics)

        if not args.no_fingerprint:
            versions = parse_versions(
                [os.path.abspath(p) for p in (
                    args.versions_from if args.versions_from is not None
                    else [os.path.join(root, p)
                          for p in DEFAULT_VERSION_HEADERS])], root)
            schema["framing"] = framing_sequences(
                [os.path.join(root, p) for p in DEFAULT_FRAMING], root)
            check_fingerprint(schema, versions, fp_path, root, args.update,
                              diagnostics)
            if args.update and not diagnostics:
                print(f"updated {fw.rel_path(fp_path, root)}")
    except fw.LintError as exc:
        print(f"snapshot_schema_lint: {exc}")
        return 2
    return fw.finish(
        "schema-symmetry violation", diagnostics,
        f"{len(pairs)} codec pair(s) and "
        f"{sum(len(v) for k, v in schema.items() if k != 'framing' and k != 'codec')} "
        f"snapshot section(s) are write/read symmetric", engine)


if __name__ == "__main__":
    sys.exit(main())
