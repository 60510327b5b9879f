package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared VM, wall time includes the time the hypervisor gave this
// VM's CPUs to other tenants ("steal"). Steal comes in episodes that
// stretch every wall time of a run by tens of percent, whatever the
// code does, so the end-to-end times are steal-free: an interval's wall
// time scaled by the share of this VM's busy CPU time that was not
// stolen, from the kernel's counters in /proc/stat. Where those
// counters are missing, an interval is plain wall time.

// mark is a point in time with the VM's CPU counters at that point.
type mark struct {
	t           time.Time
	busy, steal uint64 // clock ticks summed over the CPUs
}

func markNow() mark {
	m := mark{t: time.Now()}
	m.busy, m.steal, _ = cpuTicks()
	return m
}

// since returns the steal-free seconds from m to now.
func (m mark) since() float64 {
	return m.until(markNow())
}

// until returns the steal-free seconds from m to n.
func (m mark) until(n mark) float64 {
	return steadyWall(n.t.Sub(m.t).Seconds(), n.busy-m.busy, n.steal-m.steal)
}

// stealShare is the share of the VM's busy CPU time stolen from m to n.
func (m mark) stealShare(n mark) float64 {
	busy, steal := n.busy-m.busy, n.steal-m.steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// steadyWall removes the stolen share from a wall time. A CPU that
// wants to run and is stolen from stretches the interval by the stolen
// time; an idle CPU accrues no steal. So whether one CPU or all are
// busy, the interval without steal is the wall time times the busy
// share of busy plus stolen ticks.
func steadyWall(wall float64, busy, steal uint64) float64 {
	if busy+steal == 0 {
		return wall
	}
	return wall * float64(busy) / float64(busy+steal)
}

// cpuTicks reads the aggregate busy and steal ticks from the first line
// of /proc/stat: "cpu user nice system idle iowait irq softirq steal …".
func cpuTicks() (busy, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, false
	}
	return parseCPULine(line)
}

func parseCPULine(line string) (busy, steal uint64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(fields[i+1], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		v[i] = n
	}
	user, nice, system, irq, softirq := v[0], v[1], v[2], v[5], v[6]
	return user + nice + system + irq + softirq, v[7], true
}
