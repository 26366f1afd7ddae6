package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo is what every result file records about where it was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu_model"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file, "" when the file or key is absent (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM) in MB.
func rssPeakMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// canaries time two fixed programs that touch none of the code under test,
// so a slow run on a noisy host can be told apart from a slow program: a
// pure ALU xorshift loop and a dependent random walk over 64 MB.
type canaries struct {
	ALUms float64 `json:"alu_ms"`
	MemMS float64 `json:"mem_ms"`
}

var canarySink uint64

func runCanaries() canaries {
	var c canaries
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	canarySink += x
	c.ALUms = float64(time.Since(start)) / 1e6

	const words = 64 << 20 / 8
	buf := make([]uint64, words)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	start = time.Now()
	idx := uint64(0)
	for i := 0; i < 1_000_000; i++ {
		idx = (buf[idx%words] + uint64(i)) % words
	}
	canarySink += idx
	c.MemMS = float64(time.Since(start)) / 1e6
	return c
}
