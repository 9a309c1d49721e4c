package par

import "testing"

// BenchmarkPendingBurst measures draining a burst of out-of-order messages:
// rank 0 sends burst tag-1 messages followed by one tag-2 message; rank 1
// receives the tag-2 message first (parking the whole burst on the pending
// queue) and then drains the burst in FIFO order. This is the recvMsg
// worst case: every drain Recv hits the pending queue, never the inbox.
func BenchmarkPendingBurst(b *testing.B) {
	for _, burst := range []int{256, 1024, 4096} {
		b.Run(benchName(burst), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := Run(2, func(c *Comm) {
					const tBurst, tFlag = Tag(1), Tag(2)
					if c.Rank() == 0 {
						for k := 0; k < burst; k++ {
							c.Send(1, tBurst, k)
						}
						c.Send(1, tFlag, -1)
						return
					}
					if data, _ := c.Recv(0, tFlag); data.(int) != -1 {
						panic("bad flag payload")
					}
					for k := 0; k < burst; k++ {
						if data, _ := c.Recv(0, tBurst); data.(int) != k {
							panic("pending queue broke FIFO order")
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(burst), "msgs/op")
		})
	}
}

func benchName(n int) string {
	switch n {
	case 256:
		return "burst=256"
	case 1024:
		return "burst=1024"
	default:
		return "burst=4096"
	}
}
