package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// An idle virtual CPU halts, and waking it again waits on the hypervisor:
// on a shared host that delay is long and varies from minute to minute.
// Every request would pay it twice (suud's CPU wakes for the request, the
// generator's for the response), so the latencies would measure the host.
// A keeper process spins on every CPU at SCHED_IDLE, which the kernel
// preempts the moment any other task becomes runnable: the CPUs never
// halt, as under idle=poll, and suud and the generator still get them
// whenever they want them.

const keepAwakeFlag = "-keep-awake"

// keeper is the running keeper process.
type keeper struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has ended
}

// startKeeper re-executes this binary as the keeper.
func startKeeper() (*keeper, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, keepAwakeFlag)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the keeper: %w", err)
	}
	k := &keeper{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(k.done)
	}()
	return k, nil
}

// check fails if the keeper has ended: the CPUs may then have halted
// while the phase just measured ran, and its latencies would not be
// comparable with those of other runs.
func (k *keeper) check() error {
	select {
	case <-k.done:
		return fmt.Errorf("the keeper ended (%v) while measuring", k.cmd.ProcessState)
	default:
		return nil
	}
}

// stop kills the keeper and waits until it has ended.
func (k *keeper) stop() {
	_ = k.cmd.Process.Kill()
	<-k.done
}

// keepAwake is the keeper's main: it puts every thread at SCHED_IDLE
// (threads created later inherit the policy) and spins one goroutine per
// CPU until killed.
func keepAwake() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	if err := idlePolicy(); err != nil {
		// Spinning at normal priority would take CPU time from suud.
		fmt.Fprintln(os.Stderr, "perfbench keeper:", err)
		os.Exit(1)
	}
	for i := 1; i < n; i++ {
		go spin()
	}
	spin()
}

func spin() {
	for {
	}
}

// idlePolicy sets SCHED_IDLE on every thread of this process.
func idlePolicy() error {
	const schedIdle = 5
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	var param struct{ priority int32 }
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return err
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle,
			uintptr(unsafe.Pointer(&param))); errno != 0 {
			return fmt.Errorf("sched_setscheduler(%d, SCHED_IDLE): %w", tid, errno)
		}
	}
	return nil
}
