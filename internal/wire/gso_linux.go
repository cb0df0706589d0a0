//go:build linux

package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"syscall"
)

// Linux's UDP offloads (linux/udp.h; package syscall does not name them).
// UDP_SEGMENT, as a socket option or a per-send control message, makes the
// kernel cut one write into datagrams of the given size on the way out
// (GSO); UDP_GRO lets a read return a run of equal-size datagrams of one
// flow as one buffer, with a control message giving their size.
const (
	udpSegment = 103
	udpGRO     = 104
)

// segmentOOB is the control message of every segmented write: cut the
// buffer into segSize datagrams. The kernel only reads it, so every pump
// shares it.
var segmentOOB = cmsg(udpSegment, 2, segSize)

// cmsg builds one control message of the given type at level UDP carrying
// an n-byte native-endian value.
func cmsg(typ, n, v int) []byte {
	b := make([]byte, syscall.CmsgSpace(n))
	putNative(b[:cmsgLenSize], syscall.CmsgLen(n))
	binary.NativeEndian.PutUint32(b[cmsgLenSize:], syscall.IPPROTO_UDP)
	binary.NativeEndian.PutUint32(b[cmsgLenSize+4:], uint32(typ))
	putNative(b[syscall.CmsgLen(0):][:n], v)
	return b
}

// cmsgLenSize is the size of a control message's length field: a size_t,
// 8 bytes on 64-bit kernels and 4 on 32-bit ones. Level and type (two
// int32s) follow it.
const cmsgLenSize = syscall.SizeofCmsghdr - 8

// putNative stores v in len(b) native-endian bytes (2, 4 or 8).
func putNative(b []byte, v int) {
	switch len(b) {
	case 2:
		binary.NativeEndian.PutUint16(b, uint16(v))
	case 4:
		binary.NativeEndian.PutUint32(b, uint32(v))
	default:
		binary.NativeEndian.PutUint64(b, uint64(v))
	}
}

// getNative reads a native-endian value of len(b) bytes (4 or 8).
func getNative(b []byte) int {
	if len(b) == 4 {
		return int(int32(binary.NativeEndian.Uint32(b)))
	}
	return int(binary.NativeEndian.Uint64(b))
}

// gsoSupported reports whether the kernel segments UDP writes on conn:
// reading the UDP_SEGMENT option succeeds exactly where UDP GSO exists.
func gsoSupported(conn *net.UDPConn) bool {
	raw, err := conn.SyscallConn()
	if err != nil {
		return false
	}
	ok := false
	raw.Control(func(fd uintptr) {
		_, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
		ok = err == nil
	})
	return ok
}

// gsoRefused reports whether a segmented write failed because this path
// cannot segment — no checksum offload on the device (EIO), a segment the
// route cannot carry unfragmented (EINVAL), a kernel without GSO — rather
// than because the socket is gone.
func gsoRefused(err error) bool {
	return errors.Is(err, syscall.EIO) || errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOPROTOOPT) || errors.Is(err, syscall.EOPNOTSUPP)
}

// enableGRO asks the kernel to coalesce runs of received datagrams on conn.
// Best effort: without it every read is one datagram, as before.
func enableGRO(conn *net.UDPConn) {
	if raw, err := conn.SyscallConn(); err == nil {
		raw.Control(func(fd uintptr) {
			syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
		})
	}
}

// groSegment returns the datagram size a UDP_GRO control message in oob
// declares for the read it came with, 0 when there is none (the read is
// one datagram).
func groSegment(oob []byte) int {
	for len(oob) >= syscall.SizeofCmsghdr {
		n := getNative(oob[:cmsgLenSize])
		if n < syscall.CmsgLen(0) || n > len(oob) {
			return 0
		}
		level := binary.NativeEndian.Uint32(oob[cmsgLenSize:])
		typ := binary.NativeEndian.Uint32(oob[cmsgLenSize+4:])
		if level == syscall.IPPROTO_UDP && typ == udpGRO && n >= syscall.CmsgLen(4) {
			return getNative(oob[syscall.CmsgLen(0):][:4])
		}
		oob = oob[min(syscall.CmsgSpace(n-syscall.CmsgLen(0)), len(oob)):]
	}
	return 0
}
