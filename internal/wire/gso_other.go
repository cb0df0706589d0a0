//go:build !linux

package wire

import "net"

// Off Linux there is no UDP segmentation offload or receive coalescing:
// the pump writes one datagram per write and every read is one datagram.

var segmentOOB []byte

func gsoSupported(*net.UDPConn) bool { return false }

func gsoRefused(error) bool { return false }

func enableGRO(*net.UDPConn) {}

func groSegment([]byte) int { return 0 }
