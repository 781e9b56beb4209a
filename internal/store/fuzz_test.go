package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"
)

// frames builds a journal byte stream from records (test/fuzz seeds) the
// reference way: each payload is json.Marshal of the whole record.
func frames(recs ...rec) []byte {
	var buf bytes.Buffer
	for _, r := range recs {
		payload, _ := json.Marshal(r)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		buf.Write(hdr[:])
		buf.Write(payload)
	}
	return buf.Bytes()
}

// TestJournalFrameIsMarshal pins encodeRecord to the reference framing:
// splicing Req in verbatim gives the bytes json.Marshal of the whole
// record gave, for requests whose SASS holds what the encoder escapes
// (<, >, &, U+2028, quotes, newlines), with and without a timestamp, and
// for tombstones and snapshots.
func TestJournalFrameIsMarshal(t *testing.T) {
	sass := "\t.kernel k sm_70 regs=8\n\t.file \"a<b>&c\u2028\\\"d\"\n\t/*0000*/ EXIT ;  & wr=- rd=- wt=0x0 st=1\n"
	body, err := json.Marshal(struct {
		SASS string `json:"sass"`
		Arch string `json:"arch,omitempty"`
	}{sass, "sm_70"})
	if err != nil {
		t.Fatal(err)
	}
	var recs []rec
	for _, ts := range []int64{0, 1_700_000_000_123_456_789} {
		recs = append(recs,
			rec{Op: opAccept, ID: "j00000001", FP: "fp<&>", Req: body, T: ts},
			rec{Op: opAccept, ID: "j00000002", T: ts},
			rec{Op: opTomb, ID: "j00000001", Out: "done", T: ts},
			rec{Op: opSnap, ID: "j00000002", T: ts},
			rec{Op: opSnap, T: ts})
	}
	for _, r := range recs {
		if got, want := encodeRecord(r), frames(r); !bytes.Equal(got, want) {
			t.Errorf("%s %s t=%d: frame\n%q\nwant\n%q", r.Op, r.ID, r.T, got, want)
		}
	}
}

// FuzzJournalReplay drives the journal decoder with arbitrary bytes —
// torn frames, flipped bits, duplicate tombstones, interleaved
// snapshots, hostile lengths. The decoder must never panic, and must
// satisfy three properties on every input:
//
//  1. Determinism: two replays of the same bytes agree exactly.
//  2. Valid-prefix: the reported valid length is ≤ len(input), frames
//     before it re-replay identically, and replaying just the valid
//     prefix yields the same records (truncation is sound).
//  3. Round-trip: re-encoding the replayed records produces a journal
//     that replays to the same reduced pending set — what compaction
//     relies on to rewrite logs without changing their meaning.
func FuzzJournalReplay(f *testing.F) {
	// Seeds: the shapes the chaos suite produces on purpose.
	clean := frames(
		rec{Op: opAccept, ID: "j00000001", FP: "fp-a", Req: json.RawMessage(`{"workload":"sgemm_naive"}`)},
		rec{Op: opAccept, ID: "j00000002", FP: "fp-b", Req: json.RawMessage(`{"workload":"jacobi_naive","scale":64}`)},
		rec{Op: opTomb, ID: "j00000001", Out: "done"},
	)
	f.Add(clean)
	f.Add(clean[:len(clean)-5]) // torn tail mid-frame
	f.Add(clean[:9])            // torn inside the first frame's header+payload
	f.Add(frames(
		rec{Op: opTomb, ID: "j00000001", Out: "done"},
		rec{Op: opTomb, ID: "j00000001", Out: "done"},      // duplicate tombstone
		rec{Op: opTomb, ID: "j00000404", Out: "cancelled"}, // tombstone without accept
	))
	f.Add(frames(
		rec{Op: opAccept, ID: "j00000001", FP: "fp-a"},
		rec{Op: opSnap},
		rec{Op: opAccept, ID: "j00000002", FP: "fp-b"},
		rec{Op: opSnap}, // second interleaved snapshot
		rec{Op: opAccept, ID: "j00000003", FP: "fp-c"},
	))
	f.Add(frames(rec{Op: "op-from-the-future", ID: "j00000007"}))
	flipped := append([]byte(nil), clean...)
	flipped[12] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // hostile length field
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen := replayJournal(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0, %d]", validLen, len(data))
		}

		// Determinism.
		recs2, validLen2 := replayJournal(data)
		if validLen != validLen2 || !reflect.DeepEqual(recs, recs2) {
			t.Fatal("replay is nondeterministic")
		}

		// Valid-prefix soundness: the truncated journal replays to the
		// same records with nothing torn.
		recsPrefix, validPrefix := replayJournal(data[:validLen])
		if validPrefix != validLen || !reflect.DeepEqual(recs, recsPrefix) {
			t.Fatalf("valid prefix is not self-contained: %d vs %d records, len %d vs %d",
				len(recs), len(recsPrefix), validLen, validPrefix)
		}

		// Round-trip: rewriting the decoded records must preserve the
		// reduced state (compaction soundness).
		pending, lastID := reduce(recs)
		reencoded := frames(recs...)
		recs3, valid3 := replayJournal(reencoded)
		if valid3 != int64(len(reencoded)) {
			t.Fatalf("re-encoded journal reports torn tail: %d/%d", valid3, len(reencoded))
		}
		pending3, lastID3 := reduce(recs3)
		if lastID != lastID3 || !reflect.DeepEqual(pending, pending3) {
			t.Fatalf("round-trip changed the reduced state:\n  %+v (last %q)\nvs\n  %+v (last %q)",
				pending, lastID, pending3, lastID3)
		}
		for _, p := range pending {
			if p.ID == "" {
				t.Fatal("pending job with empty ID escaped reduce")
			}
		}
	})
}
