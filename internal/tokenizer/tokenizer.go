package tokenizer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Special token ids. They precede the 256 byte tokens in the vocabulary.
const (
	PadID int32 = 0
	BosID int32 = 1
	EosID int32 = 2
	// NumSpecial is the number of special tokens.
	NumSpecial = 3
)

var specialNames = [NumSpecial]string{"<pad>", "<s>", "</s>"}

// Tokenizer is a byte-level BPE tokenizer with byte fallback.
type Tokenizer struct {
	tokens [][]byte
	merges map[pair]mergeInfo
	byteID [256]int32

	// sortedRegular holds non-special token ids ordered lexicographically by
	// token bytes — the order the mask-cache preprocessor consumes (§3.3).
	sortedRegular []int32
	// byteRank maps a token id to its position in sortedRegular (0 for
	// special tokens); mask fills sort context-dependent ids by it.
	byteRank []int32

	fpOnce sync.Once
	fp     uint64

	// The word-encoding memo is locked on every encoded word, concurrently
	// with mask fills reading the tables above; the pad keeps its lock off
	// their cache lines.
	_     [64]byte
	mu    sync.Mutex
	cache map[string][]int32
}

// newBase returns a tokenizer with only special and byte tokens.
func newBase() *Tokenizer {
	t := &Tokenizer{
		merges: map[pair]mergeInfo{},
		cache:  map[string][]int32{},
	}
	for _, name := range specialNames {
		t.tokens = append(t.tokens, []byte(name))
	}
	for b := 0; b < 256; b++ {
		t.byteID[b] = int32(len(t.tokens))
		t.tokens = append(t.tokens, []byte{byte(b)})
	}
	return t
}

// finish precomputes derived tables after training.
func (t *Tokenizer) finish() {
	t.sortedRegular = t.sortedRegular[:0]
	for id := int32(NumSpecial); id < int32(len(t.tokens)); id++ {
		t.sortedRegular = append(t.sortedRegular, id)
	}
	sort.Slice(t.sortedRegular, func(i, j int) bool {
		return bytes.Compare(t.tokens[t.sortedRegular[i]], t.tokens[t.sortedRegular[j]]) < 0
	})
	t.byteRank = make([]int32, len(t.tokens))
	for rank, id := range t.sortedRegular {
		t.byteRank[id] = int32(rank)
	}
}

// VocabSize returns the number of tokens including specials.
func (t *Tokenizer) VocabSize() int { return len(t.tokens) }

// TokenBytes returns the byte string of token id.
func (t *Tokenizer) TokenBytes(id int32) []byte { return t.tokens[id] }

// IsSpecial reports whether id is a control token (pad/bos/eos).
func (t *Tokenizer) IsSpecial(id int32) bool { return id < NumSpecial }

// StopIDs returns the stop-token ids (just EOS here).
func (t *Tokenizer) StopIDs() []int32 { return []int32{EosID} }

// SpecialIDs returns all control-token ids.
func (t *Tokenizer) SpecialIDs() []int32 { return []int32{PadID, BosID, EosID} }

// SortedRegularIDs returns non-special token ids in lexicographic byte
// order. Callers must not modify the slice.
func (t *Tokenizer) SortedRegularIDs() []int32 { return t.sortedRegular }

// ByteRanks maps each token id to its index in SortedRegularIDs (special
// tokens map to 0). Callers must not modify the slice.
func (t *Tokenizer) ByteRanks() []int32 { return t.byteRank }

// Fingerprint returns a stable FNV-1a hash over the full vocabulary: the
// token count and the length-prefixed bytes of every token in id order. Two
// tokenizers share a fingerprint iff they map ids to identical byte strings,
// so it detects vocabulary mismatches that a size check cannot (same size,
// different merges). Safe for concurrent use.
func (t *Tokenizer) Fingerprint() uint64 {
	t.fpOnce.Do(func() {
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(len(t.tokens)))
		h.Write(buf[:])
		for _, tb := range t.tokens {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(tb)))
			h.Write(buf[:])
			h.Write(tb)
		}
		t.fp = h.Sum64()
	})
	return t.fp
}

// NumMerges returns the number of learned merges.
func (t *Tokenizer) NumMerges() int { return len(t.merges) }

func (t *Tokenizer) mergedBytes(p pair) []byte {
	a, b := t.tokens[p.a], t.tokens[p.b]
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// Encode tokenizes text. Any byte sequence is encodable via byte fallback.
func (t *Tokenizer) Encode(text string) []int32 {
	var out []int32
	pretokenize(text, func(w string) {
		out = append(out, t.encodeWord(w)...)
	})
	return out
}

func (t *Tokenizer) encodeWord(w string) []int32 {
	t.mu.Lock()
	if ids, ok := t.cache[w]; ok {
		t.mu.Unlock()
		return ids
	}
	t.mu.Unlock()

	seq := make([]int32, len(w))
	for i := 0; i < len(w); i++ {
		seq[i] = t.byteID[w[i]]
	}
	// Standard BPE encoding: repeatedly apply the lowest-rank merge.
	for len(seq) > 1 {
		bestRank := int32(-1)
		bestAt := -1
		var bestID int32
		for i := 0; i+1 < len(seq); i++ {
			if mi, ok := t.merges[pair{seq[i], seq[i+1]}]; ok {
				if bestRank < 0 || mi.rank < bestRank {
					bestRank = mi.rank
					bestAt = i
					bestID = mi.id
				}
			}
		}
		if bestAt < 0 {
			break
		}
		seq[bestAt] = bestID
		seq = append(seq[:bestAt+1], seq[bestAt+2:]...)
	}
	t.mu.Lock()
	t.cache[w] = seq
	t.mu.Unlock()
	return seq
}

// Decode reconstructs the byte string for ids. Special tokens decode to
// nothing.
func (t *Tokenizer) Decode(ids []int32) []byte {
	var out []byte
	for _, id := range ids {
		if t.IsSpecial(id) {
			continue
		}
		out = append(out, t.tokens[id]...)
	}
	return out
}

// Stats summarizes vocabulary shape for the experiment reports.
type Stats struct {
	VocabSize   int
	Merges      int
	MaxTokenLen int
	AvgTokenLen float64
	MultiByte   int // tokens longer than one byte
}

// ComputeStats returns vocabulary statistics over regular tokens.
func (t *Tokenizer) ComputeStats() Stats {
	s := Stats{VocabSize: len(t.tokens), Merges: len(t.merges)}
	total := 0
	n := 0
	for id := int32(NumSpecial); id < int32(len(t.tokens)); id++ {
		l := len(t.tokens[id])
		total += l
		n++
		if l > s.MaxTokenLen {
			s.MaxTokenLen = l
		}
		if l > 1 {
			s.MultiByte++
		}
	}
	if n > 0 {
		s.AvgTokenLen = float64(total) / float64(n)
	}
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("vocab=%d merges=%d maxLen=%d avgLen=%.2f multiByte=%d",
		s.VocabSize, s.Merges, s.MaxTokenLen, s.AvgTokenLen, s.MultiByte)
}
