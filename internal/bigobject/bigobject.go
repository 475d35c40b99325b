// Package bigobject extends TPNR to the paper's actual target
// workload: "Cloud storage is only attractive to large volume (TB)
// data backup" (§6). A large object is split into chunks under a
// Merkle manifest; the manifest travels through a normal TPNR
// transaction (so its root is covered by NRO/NRR evidence), each chunk
// through its own transaction; and a downloader verifies every chunk
// against the manifest — so tampering is not just detected but
// LOCALIZED to chunk indices, and a dispute can be argued per chunk
// instead of per terabyte.
package bigobject

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/merkle"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Errors.
var (
	ErrBadManifest = errors.New("bigobject: manifest malformed or inconsistent")
	ErrTampered    = errors.New("bigobject: one or more chunks fail the manifest")
)

// DefaultChunkSize is 4 MiB, a common object-store part size.
const DefaultChunkSize = 4 << 20

// Manifest fixes a chunked object's shape and content hashes.
type Manifest struct {
	// ObjectKey is the logical object name; chunks live under it.
	ObjectKey string
	// ChunkSize is the split size (last chunk may be shorter).
	ChunkSize int
	// TotalLen is the object's byte length.
	TotalLen uint64
	// Leaves are the per-chunk Merkle leaf hashes, in order.
	Leaves []cryptoutil.Digest
	// Root is the Merkle root over Leaves; TPNR evidence covers the
	// manifest encoding, hence the root, hence every chunk.
	Root cryptoutil.Digest
}

// ManifestKey names the stored manifest object for key.
func ManifestKey(key string) string { return key + "/manifest" }

// ChunkKey names the i-th stored chunk object for key.
func ChunkKey(key string, i int) string { return fmt.Sprintf("%s/chunk/%08d", key, i) }

// Encode serializes the manifest canonically.
func (m *Manifest) Encode() []byte {
	e := wire.NewEncoder(64 + len(m.Leaves)*40)
	e.String("tpnr-manifest-v1")
	e.String(m.ObjectKey)
	e.U64(uint64(m.ChunkSize))
	e.U64(m.TotalLen)
	e.U32(uint32(len(m.Leaves)))
	for _, l := range m.Leaves {
		e.Bytes32(l.Sum)
	}
	e.Bytes32(m.Root.Sum)
	return e.Bytes()
}

// DecodeManifest reverses Encode and validates internal consistency
// (the leaves must hash to the recorded root).
func DecodeManifest(b []byte) (*Manifest, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic("tpnr-manifest-v1"); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadManifest, err)
	}
	m := &Manifest{}
	m.ObjectKey = d.String()
	m.ChunkSize = int(d.U64())
	m.TotalLen = d.U64()
	n := d.U32()
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, d.Err())
	}
	if n == 0 || n > 1<<24 {
		return nil, fmt.Errorf("%w: %d leaves", ErrBadManifest, n)
	}
	m.Leaves = make([]cryptoutil.Digest, n)
	for i := range m.Leaves {
		m.Leaves[i] = cryptoutil.Digest{Alg: cryptoutil.SHA256, Sum: d.Bytes32()}
	}
	m.Root = cryptoutil.Digest{Alg: cryptoutil.SHA256, Sum: d.Bytes32()}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if m.ChunkSize <= 0 {
		return nil, fmt.Errorf("%w: chunk size %d", ErrBadManifest, m.ChunkSize)
	}
	tree, err := merkle.FromLeaves(m.Leaves)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if !tree.Root().Equal(m.Root) {
		return nil, fmt.Errorf("%w: leaves do not hash to the recorded root", ErrBadManifest)
	}
	return m, nil
}

// BuildManifest splits data and assembles its manifest.
func BuildManifest(key string, data []byte, chunkSize int) (*Manifest, [][]byte, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	chunks := merkle.Split(data, chunkSize)
	tree, err := merkle.New(chunks)
	if err != nil {
		return nil, nil, err
	}
	m := &Manifest{
		ObjectKey: key,
		ChunkSize: chunkSize,
		TotalLen:  uint64(len(data)),
		Root:      tree.Root(),
	}
	for _, c := range chunks {
		m.Leaves = append(m.Leaves, merkle.LeafHash(c))
	}
	return m, chunks, nil
}

// UploadResult records a completed chunked upload.
type UploadResult struct {
	Manifest *Manifest
	// ManifestTxn is the TPNR transaction whose evidence covers the
	// manifest (and therefore the Merkle root).
	ManifestTxn string
	// ChunkTxns are the per-chunk transactions.
	ChunkTxns []string
	// ManifestEvidence is the provider's NRR over the manifest.
	ManifestEvidence *evidence.Evidence
}

// Upload runs the chunked upload: one TPNR transaction for the
// manifest, one per chunk. baseTxn prefixes all transaction IDs.
func Upload(ctx context.Context, client *core.Client, conn transport.Conn, baseTxn, key string, data []byte, chunkSize int) (*UploadResult, error) {
	m, chunks, err := BuildManifest(key, data, chunkSize)
	if err != nil {
		return nil, err
	}
	manifestTxn := baseTxn + "-manifest"
	up, err := client.Upload(ctx, conn, manifestTxn, ManifestKey(key), m.Encode())
	if err != nil {
		return nil, fmt.Errorf("bigobject: uploading manifest: %w", err)
	}
	res := &UploadResult{Manifest: m, ManifestTxn: manifestTxn, ManifestEvidence: up.NRR}
	for i, c := range chunks {
		txn := fmt.Sprintf("%s-chunk-%08d", baseTxn, i)
		if _, err := client.Upload(ctx, conn, txn, ChunkKey(key, i), c); err != nil {
			return nil, fmt.Errorf("bigobject: uploading chunk %d: %w", i, err)
		}
		res.ChunkTxns = append(res.ChunkTxns, txn)
	}
	return res, nil
}

// DownloadResult reports a chunked download with per-chunk verdicts.
type DownloadResult struct {
	Manifest *Manifest
	// Data is the reassembled object (only complete when BadChunks is
	// empty).
	Data []byte
	// BadChunks lists indices whose content failed the manifest — the
	// localization a whole-object digest cannot give.
	BadChunks []int
}

// Download fetches the manifest (verified through TPNR against the
// upload transaction) and every chunk (each verified against the
// manifest). It returns ErrTampered, with the full result, when any
// chunk fails.
func Download(ctx context.Context, client *core.Client, conn transport.Conn, baseTxn, key, manifestTxn string) (*DownloadResult, error) {
	mres, err := client.Download(ctx, conn, baseTxn+"-manifest", ManifestKey(key), manifestTxn)
	if err != nil {
		return nil, fmt.Errorf("bigobject: downloading manifest: %w", err)
	}
	m, err := DecodeManifest(mres.Data)
	if err != nil {
		return nil, err
	}
	if m.ObjectKey != key {
		return nil, fmt.Errorf("%w: manifest is for %q, requested %q", ErrBadManifest, m.ObjectKey, key)
	}
	res := &DownloadResult{Manifest: m}
	var buf bytes.Buffer
	for i := range m.Leaves {
		txn := fmt.Sprintf("%s-chunk-%08d", baseTxn, i)
		cres, err := client.Download(ctx, conn, txn, ChunkKey(key, i), "")
		switch {
		case errors.Is(err, core.ErrIntegrity):
			// The provider served bytes that contradict its own earlier
			// receipt; definitely bad.
			res.BadChunks = append(res.BadChunks, i)
			continue
		case err != nil:
			return nil, fmt.Errorf("bigobject: downloading chunk %d: %w", i, err)
		}
		if !merkle.LeafHash(cres.Data).Equal(m.Leaves[i]) {
			res.BadChunks = append(res.BadChunks, i)
			continue
		}
		buf.Write(cres.Data)
	}
	res.Data = buf.Bytes()
	if len(res.BadChunks) > 0 {
		return res, fmt.Errorf("%w: chunks %v", ErrTampered, res.BadChunks)
	}
	if uint64(len(res.Data)) != m.TotalLen {
		return res, fmt.Errorf("%w: reassembled %d bytes, manifest says %d", ErrBadManifest, len(res.Data), m.TotalLen)
	}
	return res, nil
}
