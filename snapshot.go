package compactroute

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"compactroute/internal/wire"
)

// SnapshotKind returns the registered wire kind of a scheme, or "" if the
// scheme does not support snapshots yet. Snapshot support is added per
// scheme (see internal/wire); currently the Theorem 10 and 11 schemes, the
// Thorup-Zwick baseline and the exact baseline are snapshottable.
func SnapshotKind(s Scheme) string {
	if es, ok := s.(wire.Encodable); ok {
		return es.WireKind()
	}
	return ""
}

// SnapshotKinds returns the scheme kinds with a registered snapshot
// decoder (order unspecified) - the set -save/-load and the live engine's
// hot-swap persistence cover.
func SnapshotKinds() []string { return wire.Kinds() }

// SaveScheme writes a versioned binary snapshot of a preprocessed scheme -
// the graph it was built for plus every routing table, sequence and label -
// so a serving process (cmd/routeserve) can LoadScheme it without paying the
// construction cost. The loaded scheme is behaviorally identical to s: same
// routing decisions, labels, headers and table words.
//
// It returns an error if the scheme's type has no snapshot support.
func SaveScheme(w io.Writer, s Scheme) error {
	es, ok := s.(wire.Encodable)
	if !ok {
		return fmt.Errorf("compactroute: scheme %s (%T) has no snapshot support", s.Name(), s)
	}
	g := s.Graph()
	snap := wire.New(es.WireKind(), g.Fingerprint())
	wire.EncodeGraph(snap, g)
	if err := es.EncodeSnapshot(snap); err != nil {
		return fmt.Errorf("compactroute: encode %s snapshot: %w", s.Name(), err)
	}
	if _, err := snap.WriteTo(w); err != nil {
		return fmt.Errorf("compactroute: write snapshot: %w", err)
	}
	return nil
}

// LoadScheme reads a snapshot written by SaveScheme: it verifies the magic,
// version and checksum, rebuilds the graph, checks the graph fingerprint
// recorded at save time, and dispatches to the decoder registered for the
// snapshot's scheme kind.
func LoadScheme(r io.Reader) (Scheme, error) {
	t0 := time.Now()
	snap, err := wire.Read(r)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	s, err := decodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	wire.EmitLoad(wire.LoadEvent{Kind: snap.Kind, Parse: t1.Sub(t0), Decode: time.Since(t1)})
	return s, nil
}

func decodeSnapshot(snap *wire.Snapshot) (Scheme, error) {
	g, err := wire.DecodeGraph(snap)
	if err != nil {
		return nil, err
	}
	if fp := g.Fingerprint(); fp != snap.Fingerprint {
		return nil, fmt.Errorf("compactroute: snapshot graph fingerprint %016x does not match header %016x", fp, snap.Fingerprint)
	}
	dec, ok := wire.DecoderFor(snap.Kind)
	if !ok {
		return nil, fmt.Errorf("compactroute: no decoder registered for scheme kind %q (known: %v)", snap.Kind, wire.Kinds())
	}
	s, err := dec(g, snap)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// PeekSnapshotKind reads only the header of the snapshot at path and
// returns its scheme kind - how a serving process chooses a rebuild recipe
// before paying for the full (checksummed) decode. The magic and version
// are checked; everything after the kind string, including the checksum, is
// validated later by the real load.
func PeekSnapshotKind(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	hdr := make([]byte, 4096)
	n, err := io.ReadFull(f, hdr)
	if err != nil && err != io.ErrUnexpectedEOF {
		return "", fmt.Errorf("%s: read snapshot header: %w", path, err)
	}
	kind, err := wire.PeekKind(hdr[:n])
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return kind, nil
}

// Typed snapshot-load failures, matchable with errors.Is. A checksum
// mismatch means the bytes are all there but corrupt; a truncated file is
// rejected by the v2 header's total-length check before any section is
// parsed (and long before any table is aliased over the bytes).
var (
	ErrSnapshotChecksum  = wire.ErrChecksum
	ErrSnapshotTruncated = wire.ErrTruncated
)

// SchemeFile is a scheme decoded straight over an mmap'd snapshot: the
// fixed-width v2 sections (tree records, bunch arrays, port tables, labels)
// alias the mapping, so loading costs page-cache faults plus index rebuilds
// instead of a full decode, and the pages are shared between every process
// serving the same file.
//
// The mapping must outlive the scheme: Close only after the scheme (and
// anything derived from it) will never be used again. For serving with
// hot-swap, prefer OpenLiveStateFile, which munmaps automatically once the
// generation drains.
type SchemeFile struct {
	Scheme Scheme
	m      *wire.Mapping
}

// Mapped reports whether the snapshot is truly memory-mapped (false on
// platforms without mmap, where the file was read into an aligned buffer;
// aliasing still works, page sharing does not).
func (sf *SchemeFile) Mapped() bool { return sf.m.Mapped() }

// Close releases the mapping. The scheme must not be used afterwards.
func (sf *SchemeFile) Close() error { return sf.m.Close() }

// OpenSchemeFile memory-maps the snapshot at path (read-only) and decodes
// the scheme over the mapped bytes.
func OpenSchemeFile(path string) (*SchemeFile, error) {
	t0 := time.Now()
	m, err := wire.Map(path)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	snap, err := wire.Parse(m.Bytes())
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t2 := time.Now()
	s, err := decodeSnapshot(snap)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	wire.EmitLoad(wire.LoadEvent{Kind: snap.Kind, Bytes: int64(len(m.Bytes())),
		Mapped: m.Mapped(), Map: t1.Sub(t0), Parse: t2.Sub(t1), Decode: time.Since(t2)})
	return &SchemeFile{Scheme: s, m: m}, nil
}

// SaveSchemeFile is SaveScheme into the file at path, replaced atomically
// (see saveFileAtomic): a process serving the old file keeps a valid
// mapping of it.
func SaveSchemeFile(path string, s Scheme) error {
	return saveFileAtomic(path, func(w io.Writer) error { return SaveScheme(w, s) })
}

// saveFileAtomic writes a snapshot to a temporary file in path's directory,
// fsyncs it and renames it over path. Truncating path in place instead
// would pull the pages out from under every process that has the old file
// mapped, and their next route would die with SIGBUS; the rename leaves the
// old inode intact until the last mapping goes. An existing file's
// permissions carry over to its replacement.
func saveFileAtomic(path string, save func(io.Writer) error) error {
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = save(f)
	if err == nil {
		err = f.Chmod(mode)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LoadSchemeFile loads the snapshot at path through the mmap fast path: the
// scheme's fixed-width tables alias the mapping, which is kept alive for the
// life of the process (aliased slices are invisible to the garbage
// collector, so there is no safe automatic unmap point). Use OpenSchemeFile
// for an explicit handle, or OpenLiveStateFile for serving with
// munmap-after-drain on hot swap.
func LoadSchemeFile(path string) (Scheme, error) {
	sf, err := OpenSchemeFile(path)
	if err != nil {
		return nil, err
	}
	return sf.Scheme, nil
}
