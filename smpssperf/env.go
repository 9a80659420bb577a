package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/kernels"
)

// stampEnv prints the environment the run measured: core counts, CPU,
// Go version, SIMD dispatch and the kernel engine parameters in use.
// The benchmark never loads a machine profile (~/.smpss/profile.json):
// the engines run their built-in blocking, so two hosts measure the
// same program.
func stampEnv(w io.Writer) {
	h := kernels.Host()
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s\n",
		h.NumCPU, runtime.GOMAXPROCS(0), cpuModel(), h.GoVersion, h.OS, h.Arch)
	fmt.Fprintf(w, "# env simd_available=%t simd_active=%t SMPSS_NOSIMD=%q\n",
		h.AVX2, h.SimdActive, os.Getenv("SMPSS_NOSIMD"))
	for _, name := range kernels.EngineProviders() {
		if p, ok := kernels.EngineParams(name); ok {
			fmt.Fprintf(w, "# env engine %s mr=%d nr=%d kc=%d crossover=%d\n", name, p.MR, p.NR, p.KC, p.Crossover)
		}
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's peak resident set in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
