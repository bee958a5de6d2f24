package dataset

import "sync"

// Stage is one group's staged samples. The members of a group that
// partitions the centroids, not the samples, all read every sample of
// the group's share: coarse Level 3's m′ ranks, the fine Level-3
// kernel's m′ CGs and a fine Level-2 CPE group. The first member to
// reach a batch generates it here, and the others read the same rows
// in place, so each sample is generated once per iteration for the
// whole group.
//
// Batch b of an iteration goes into buffer b&1, tagged by (iteration,
// batch). Two buffers are enough because every caller keeps this
// contract:
//   - consecutive batches of an iteration are separated by a group
//     collective that every member enters only after finishing the
//     previous batch (the min-reduce of the batch's assignments);
//   - consecutive iterations are separated by a collective over the
//     whole group.
//
// A member reads batch b, winners' sums included, before it enters
// the collective of batch b+1. Batch b+2, which refills b's buffer, is
// loaded only after that collective returned, so by then every member
// has finished with batch b. The buffer of an iteration's last batch
// may be refilled by the next iteration's first, which the collective
// between iterations orders the same way.
//
// Each buffer holds exactly the largest batch it will stage, never a
// batch bound's worth, so a group that stages one batch per iteration
// holds one buffer, and Load never allocates.
type Stage struct {
	src  Source
	mu   sync.Mutex
	tag  [2]stageTag  // guarded by mu — the batch each buffer holds
	rows [2][]float64 // guarded by mu
}

// stageTag names a staged batch: batch of iteration iter.
type stageTag struct{ iter, batch int }

// NewStage returns an empty stage over src for a group that stages
// samples samples per iteration, in batches of batch and a short last
// one.
func NewStage(src Source, batch, samples int) *Stage {
	d := src.D()
	odd := min(batch, max(0, samples-batch)) // batch 1, the largest odd one
	return &Stage{
		src:  src,
		tag:  [2]stageTag{{-1, -1}, {-1, -1}},
		rows: [2][]float64{make([]float64, min(batch, samples)*d), make([]float64, odd*d)},
	}
}

// Load returns batch b of iteration iter — the m samples first,
// first+stride, … — as consecutive D()-wide rows, generating them
// unless a member of the group already staged that batch. Every member
// passes the same samples for the same (iter, b). The rows stay valid
// until the member returns from the collective that follows batch b+1.
func (s *Stage) Load(iter, b, first, stride, m int) []float64 {
	d := s.src.D()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, tag := b&1, stageTag{iter, b}
	rows := s.rows[j][:m*d]
	if s.tag[j] != tag {
		for r := 0; r < m; r++ {
			s.src.Sample(first+r*stride, rows[r*d:(r+1)*d])
		}
		s.tag[j] = tag
	}
	return rows
}
