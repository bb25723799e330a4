/**
 * @file
 * In situ cloud-pipeline example (paper section 4.4, Fig 12): the
 * prototype runs a tiny web server as a first-class citizen of a cloud
 * pipeline. A Lambda-stub forwards an HTTP request into the prototype's
 * serial interface; the guest fetches the requested object (staged into
 * the virtual SD card by the host-side driver, standing in for S3),
 * attaches the current time and returns an HTTP response, which the
 * Lambda returns to the client.
 *
 * Every byte really moves through the modeled substrate: the S3 object
 * rides the PCIe fabric into SD memory; the request and response ride
 * node 0's console UART through the host's io::VirtualSerial; the guest
 * executes real RISC-V instructions.
 */

#include <cstdio>
#include <string>

#include "io/sd_card.hpp"
#include "platform/prototype.hpp"

using namespace smappic;

int
main()
{
    platform::Prototype proto(platform::PrototypeConfig::parse("1x1x4"));

    // --- "S3": the host driver stages the object into the virtual SD ---
    std::string object = "{\"bucket\":\"demo\",\"body\":\"hello from S3\"}";
    std::vector<std::uint8_t> image(io::VirtualSdCard::kBlockBytes, 0);
    for (std::size_t i = 0; i < object.size(); ++i)
        image[i] = static_cast<std::uint8_t>(object[i]);
    io::HostSdLoader loader(proto.fabric(), 0x100000000ULL);
    loader.loadImage(image);
    proto.eventQueue().run();
    std::printf("[host] staged %llu-byte S3 object into the virtual SD "
                "card over PCIe\n",
                static_cast<unsigned long long>(loader.bytesWritten()));

    // --- the guest web server (nginx + PHP stand-in) ---
    proto.loadSource(R"(
.data
req:    .space 64
hdr:    .asciiz "HTTP/1.0 200 OK\n\n"
tail:   .asciiz "\ntime="
buf:    .space 512
digits: .space 24
.text
_start:
    # Read the request line from the console UART (CGI stdin).
    li a0, 0
    la a1, req
    li a2, 63
    li a7, 63              # read()
    ecall

    # Fetch the S3 object: SD block 0 -> buf.
    li t0, 0x03000000      # SD controller MMIO
    sd zero, 0(t0)         # LBA 0
    la t1, buf
    sd t1, 8(t0)           # DMA buffer
    li t2, 1
    sd t2, 16(t0)          # CMD read

    # Respond: header.
    li a0, 1
    la a1, hdr
    li a2, 17
    li a7, 64              # write()
    ecall

    # Body: the object (NUL-terminated), length via strlen.
    la t0, buf
    li t1, 0
strlen:
    add t2, t0, t1
    lbu t3, 0(t2)
    beqz t3, strdone
    addi t1, t1, 1
    j strlen
strdone:
    li a0, 1
    la a1, buf
    mv a2, t1
    li a7, 64
    ecall

    # Attach the date (cycle counter) like the paper's PHP script.
    li a0, 1
    la a1, tail
    li a2, 6
    li a7, 64
    ecall
    csrr t0, 0xc00         # cycle
    la t1, digits
    addi t1, t1, 20
    sb zero, 0(t1)         # NUL
itoa:
    addi t1, t1, -1
    li t2, 10
    remu t3, t0, t2
    addi t3, t3, 48
    sb t3, 0(t1)
    divu t0, t0, t2
    bnez t0, itoa
    # strlen of the digit string.
    mv t4, t1
    li t5, 0
dlen:
    add t6, t4, t5
    lbu t2, 0(t6)
    beqz t2, ddone
    addi t5, t5, 1
    j dlen
ddone:
    li a0, 1
    mv a1, t4
    mv a2, t5
    li a7, 64
    ecall
    li t2, 0x10000000
    li t3, 10
    sb t3, 0(t2)           # final newline straight to the UART

    li a0, 0
    li a7, 93
    ecall
)");

    // --- "Lambda": forward the client's HTTP request into the UART ---
    std::string request = "GET /object?bucket=demo HTTP/1.0\n";
    proto.console(0).type(proto.consoleUart(0), request);
    std::printf("[lambda] forwarded: %s", request.c_str());

    auto halt = proto.runCore(0);
    if (halt != riscv::HaltReason::kExited) {
        std::printf("guest did not exit cleanly\n");
        return 1;
    }

    // --- "Lambda" returns the response to the client ---
    std::printf("[lambda] response from the prototype:\n");
    std::printf("----------------------------------------\n");
    std::printf("%s", proto.console(0).captured().c_str());
    std::printf("----------------------------------------\n");

    bool ok = proto.console(0).captured().find("hello from S3") !=
                  std::string::npos &&
              proto.console(0).captured().find("time=") !=
                  std::string::npos;
    std::printf("pipeline check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
