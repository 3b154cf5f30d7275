package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may contain spaces; fields
	// after it are space-separated, utime and stime being the 12th and
	// 13th after the closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user+system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks returns the host's cumulative CPU ticks from /proc/stat: all
// of them, and those stolen by the hypervisor for other guests.
func hostTicks() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		// Guest time (fields 9 and 10) is already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// peakRSSMiB returns a process's peak resident set size (VmHWM) in MiB:
// since it started, or since the last resetPeakRSS.
func peakRSSMiB(pid int) (float64, error) { return statusMiB(pid, "VmHWM:") }

// rssMiB returns a process's current resident set size (VmRSS) in MiB.
func rssMiB(pid int) (float64, error) { return statusMiB(pid, "VmRSS:") }

// resetPeakRSS sets a process's VmHWM back to its current resident set
// size, so that a later peakRSSMiB reads the peak of what ran in between
// and not that of set-up.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// statusMiB reads one kB field of /proc/<pid>/status in MiB.
func statusMiB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field); ok {
			fs := strings.Fields(rest)
			if len(fs) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fs[0], 64)
			if err != nil {
				return 0, fmt.Errorf("%s %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, strings.TrimSuffix(field, ":"))
}

// promSamples is a parsed Prometheus text exposition: series key (metric
// name plus its label set exactly as exposed, e.g.
// `elsa_serve_admission_total{decision="admitted"}`) to value.
type promSamples map[string]float64

// parseProm parses the text exposition format, skipping comments, blank
// lines and lines it cannot read. A trailing timestamp is ignored.
func parseProm(text string) promSamples {
	out := promSamples{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The series key ends at the first space after any label block.
		end := strings.IndexByte(line, ' ')
		if br := strings.IndexByte(line, '{'); br >= 0 && br < end {
			cl := strings.IndexByte(line, '}')
			if cl < 0 {
				continue
			}
			end = cl + 1
		}
		if end <= 0 || end >= len(line) {
			continue
		}
		fs := strings.Fields(line[end:])
		if len(fs) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fs[0], 64)
		if err != nil {
			continue
		}
		out[line[:end]] = v
	}
	return out
}

// Sum adds every series of metric name, whatever its labels.
func (p promSamples) Sum(name string) float64 {
	var t float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta returns after − before for every series in after.
func (p promSamples) delta(before promSamples) promSamples {
	out := promSamples{}
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}

// serveCounters are the /v1/metrics figures the benchmark reports.
type serveCounters struct {
	Batches, BatchOps                      float64
	Admitted, Shed                         float64
	DecodeBatches, DecodeOps, DecodeShared float64
}

func readServeCounters(p promSamples) serveCounters {
	adm := p[`elsa_serve_admission_total{decision="admitted"}`]
	return serveCounters{
		Batches:       p["elsa_serve_batches_total"],
		BatchOps:      p["elsa_serve_batch_ops_total"],
		Admitted:      adm,
		Shed:          p.Sum("elsa_serve_admission_total") - adm,
		DecodeBatches: p["elsa_serve_decode_batches_total"],
		DecodeOps:     p["elsa_serve_decode_batch_ops_total"],
		DecodeShared:  p["elsa_serve_decode_coalesced_total"],
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
