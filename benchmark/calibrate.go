package main

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// The machines this benchmark runs on change speed as a whole, by up to a
// half, for tens of minutes at a time (see README.md, Noise floor): a run
// taken in a slow stretch and one taken in a fast stretch of the same code
// differ by more than any regression bound. Nothing inside a run can average
// that out, so every run measures the machine beside the daemon: between the
// rounds of its measured phase each client runs a calibration slice — fixed
// work in the load generator that shares no code with the repository under
// test — and the run's timings are reported relative to how fast the
// calibration ran, scaled to the reference machine's calibration time so
// that the units stay milliseconds and seconds.

// calRefMs is the calibration slice's lower-quartile time on the reference
// machine at the commit that introduced the benchmark, in its fast stretches.
// It only fixes the scale of the reported numbers; a comparison of two
// commits on one machine does not depend on it.
const calRefMs = 11.2

// calInput is the calibration's fixed input: a table of generated records as
// text, the kind of bytes the daemon is sent.
var calInput = func() []byte {
	var b bytes.Buffer
	x := uint32(12345)
	for i := 0; i < 20000; i++ {
		b.WriteString(strconv.Itoa(i))
		for f := 0; f < 4; f++ {
			x = x*1664525 + 1013904223 // a fixed LCG: the input never changes
			b.WriteByte(',')
			b.WriteString("v" + strconv.Itoa(int(x>>16)%97))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}()

// calSlice does the calibration's fixed work once and returns how long it
// took in ms. The work is what a data service written in Go spends its time
// on — split text into fields, allocate, hash into maps, sort, digest — in
// proportions that make it slow down with the host about as much as the
// daemon's requests do; it calls nothing of the repository under test, so no
// change there can move it. The second result depends on all of the work, so
// none of it can be optimised away.
func calSlice() (ms float64, sum int) {
	start := time.Now()
	groups := map[string][]int{}
	for i, line := range bytes.Split(calInput, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		fields := bytes.Split(line, []byte{','})
		key := string(bytes.Join(fields[1:], []byte{'|'}))
		groups[key] = append(groups[key], i)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		sum += len(groups[k])
	}
	sum += int(h.Sum(nil)[0])
	return float64(time.Since(start)) / float64(time.Millisecond), sum
}

// calibration collects a run's slices; every client appends to its own.
type calibration struct {
	perClient [][]float64
	sums      []int
}

func newCalibration() *calibration {
	return &calibration{perClient: make([][]float64, numClients), sums: make([]int, numClients)}
}

// A measured phase pauses about calPauses times, spread evenly over its
// rounds, and every client runs slicesPerPause slices in each pause: a few
// dozen samples a run, at a cost of well under a second.
const (
	calPauses      = 12
	slicesPerPause = 3
)

// pause runs the calibration on every client at once — both cores busy, as
// they are during a round. The slices allocate, and a collection that
// happened to start inside one would double its time and cost the more the
// more replies the generator is holding; so the collector is off during the
// slices and runs once after them, before the daemon gets its next request.
func (c *calibration) pause() {
	defer runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eachClient(func(client int) {
		for i := 0; i < slicesPerPause; i++ {
			ms, sum := calSlice()
			c.perClient[client] = append(c.perClient[client], ms)
			c.sums[client] += sum
		}
	})
}

func (c *calibration) samples() []float64 {
	var all []float64
	for _, v := range c.perClient {
		all = append(all, v...)
	}
	return all
}

// speed is how much slower than the reference machine this run's machine
// was: the lower quartile of the slices over calRefMs. Times are divided by
// it and rates multiplied.
func (c *calibration) speed() float64 {
	return lowerQuartile(c.samples()) / calRefMs
}
