/* Native lane loops of the simulator's translated engine (machine.ml).

   Each function is the lane loop of one translated closure, statement
   for statement: the same lane order, and within a lane the same reads
   before the same write.  A source may alias the destination (Vrmpy
   with vd = vs, a Vmpy/Vmpyb/Vmul source inside its destination pair, a
   Vpack destination inside its source pair), and only that order gives
   the reference interpreter's bytes, so no pointer is restrict.  gcc
   versions the loops on a runtime overlap check and vectorizes the
   non-overlapping case.

   Registers are the 128-byte [bytes] windows of the OCaml machine.
   Lane words are little-endian like the simulated DSP; machine.ml
   refuses a big-endian host.  Integer arguments arrive tagged and are
   read with Long_val, so one function serves native code and bytecode.
   No function allocates, raises or releases the runtime lock, which is
   what their [@@noalloc] externals promise. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static inline int32_t ld16(const unsigned char *p)
{
  int16_t v;
  memcpy(&v, p, 2);
  return v;
}

/* Stores the low 16 bits, as machine.ml's [p16] does. */
static inline void st16(unsigned char *p, int32_t v)
{
  uint16_t h = (uint16_t)v;
  memcpy(p, &h, 2);
}

static inline int32_t ld32(const unsigned char *p)
{
  int32_t v;
  memcpy(&v, p, 4);
  return v;
}

/* Stores the low 32 bits, so storing an unwrapped sum is [Sat.wrap32]. */
static inline void st32(unsigned char *p, uint32_t v)
{
  memcpy(p, &v, 4);
}

static inline int32_t clamp8(int32_t v)
{
  return v < -128 ? -128 : v > 127 ? 127 : v;
}

static inline int32_t clamp16(int32_t v)
{
  return v < -32768 ? -32768 : v > 32767 ? 32767 : v;
}

/* Byte [m] of a scalar register, sign-extended. */
static inline int32_t sbyte(intnat rv, int m)
{
  return (int32_t)(((rv >> (8 * m)) & 0xff) ^ 0x80) - 0x80;
}

/* Vrmpy: 32-bit lane l gains the dot product of source bytes 4l..4l+3
   with the scalar's four bytes, wrapping at 32 bits. */
value gcd2_vm_vrmpy(value vdst, value vsrc, value vrt)
{
  unsigned char *dst = Bytes_val(vdst);
  const int8_t *src = (const int8_t *)Bytes_val(vsrc);
  intnat rv = Long_val(vrt);
  int32_t b0 = sbyte(rv, 0), b1 = sbyte(rv, 1), b2 = sbyte(rv, 2), b3 = sbyte(rv, 3);
  for (int i = 0; i < 128; i += 4)
    st32(dst + i, (uint32_t)ld32(dst + i)
                      + (uint32_t)(src[i] * b0 + src[i + 1] * b1 + src[i + 2] * b2
                                   + src[i + 3] * b3));
  return Val_unit;
}

/* Vmpy: source byte i meets scalar byte i mod 4 and saturates into
   16-bit lane i/2 of lo (i even) or hi (i odd). */
value gcd2_vm_vmpy(value vlo, value vhi, value vsrc, value vrt)
{
  unsigned char *lo = Bytes_val(vlo), *hi = Bytes_val(vhi);
  const int8_t *src = (const int8_t *)Bytes_val(vsrc);
  intnat rv = Long_val(vrt);
  int32_t b0 = sbyte(rv, 0), b1 = sbyte(rv, 1), b2 = sbyte(rv, 2), b3 = sbyte(rv, 3);
  for (int o = 0; o < 128; o += 4) {
    st16(lo + o, clamp16(ld16(lo + o) + src[o] * b0));
    st16(hi + o, clamp16(ld16(hi + o) + src[o + 1] * b1));
    st16(lo + o + 2, clamp16(ld16(lo + o + 2) + src[o + 2] * b2));
    st16(hi + o + 2, clamp16(ld16(hi + o + 2) + src[o + 3] * b3));
  }
  return Val_unit;
}

/* Vmpyb: Vmpy with scalar byte [sel] (0..3) for every source byte. */
value gcd2_vm_vmpyb(value vlo, value vhi, value vsrc, value vrt, value vsel)
{
  unsigned char *lo = Bytes_val(vlo), *hi = Bytes_val(vhi);
  const int8_t *src = (const int8_t *)Bytes_val(vsrc);
  int32_t w = sbyte(Long_val(vrt), (int)Long_val(vsel));
  for (int o = 0; o < 128; o += 2) {
    st16(lo + o, clamp16(ld16(lo + o) + src[o] * w));
    st16(hi + o, clamp16(ld16(hi + o) + src[o + 1] * w));
  }
  return Val_unit;
}

/* Vmul: Vmpyb with byte i of a second vector for the scalar byte. */
value gcd2_vm_vmul(value vlo, value vhi, value va, value vb)
{
  unsigned char *lo = Bytes_val(vlo), *hi = Bytes_val(vhi);
  const int8_t *a = (const int8_t *)Bytes_val(va), *b = (const int8_t *)Bytes_val(vb);
  for (int o = 0; o < 128; o += 2) {
    st16(lo + o, clamp16(ld16(lo + o) + a[o] * b[o]));
    st16(hi + o, clamp16(ld16(hi + o) + a[o + 1] * b[o + 1]));
  }
  return Val_unit;
}

/* Vaddw: 16-bit source lane l adds into 32-bit lane l of the pair (lo
   holds lanes 0..31, hi lanes 32..63), wrapping at 32 bits. */
value gcd2_vm_vaddw(value vlo, value vhi, value vsrc)
{
  unsigned char *lo = Bytes_val(vlo), *hi = Bytes_val(vhi);
  const unsigned char *src = Bytes_val(vsrc);
  for (int l = 0; l < 32; l++)
    st32(lo + 4 * l, (uint32_t)ld32(lo + 4 * l) + (uint32_t)ld16(src + 2 * l));
  for (int l = 0; l < 32; l++)
    st32(hi + 4 * l, (uint32_t)ld32(hi + 4 * l) + (uint32_t)ld16(src + 64 + 2 * l));
  return Val_unit;
}

/* Vpack W32: the pair's 64 32-bit lanes saturate into 16-bit lanes. */
value gcd2_vm_vpack_w32(value vdst, value vlo, value vhi)
{
  unsigned char *dst = Bytes_val(vdst);
  const unsigned char *plo = Bytes_val(vlo), *phi = Bytes_val(vhi);
  for (int l = 0; l < 32; l++)
    st16(dst + 2 * l, clamp16(ld32(plo + 4 * l)));
  for (int l = 0; l < 32; l++)
    st16(dst + 64 + 2 * l, clamp16(ld32(phi + 4 * l)));
  return Val_unit;
}

/* Vpack W16: the pair's 128 16-bit lanes saturate into bytes. */
value gcd2_vm_vpack_w16(value vdst, value vlo, value vhi)
{
  unsigned char *dst = Bytes_val(vdst);
  const unsigned char *plo = Bytes_val(vlo), *phi = Bytes_val(vhi);
  for (int l = 0; l < 64; l++)
    dst[l] = (unsigned char)clamp8(ld16(plo + 2 * l));
  for (int l = 0; l < 64; l++)
    dst[64 + l] = (unsigned char)clamp8(ld16(phi + 2 * l));
  return Val_unit;
}
