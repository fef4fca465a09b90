package gostmt

// dispatch.go is the serving layer's blessed goroutine-launch file:
// like sched.go, goroutine launches here are exempt from the
// gostmt rule and must produce no finding.
func dispatchLaunch(ch chan int) {
	go func() { ch <- 4 }()
}
