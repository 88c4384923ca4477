# Runs `clang-format --dry-run --Werror` over the formatted directories.
# The one definition of the format check: the root `lint` target and the
# CI lint lane both run it:
#   cmake -DCLANG_FORMAT=... -DSOURCE_DIR=... -P tools/format_check.cmake

file(GLOB_RECURSE files
     "${SOURCE_DIR}/src/*.cc" "${SOURCE_DIR}/src/*.h"
     "${SOURCE_DIR}/tests/*.cc" "${SOURCE_DIR}/tests/*.h"
     "${SOURCE_DIR}/bench/*.cc" "${SOURCE_DIR}/bench/*.h")
execute_process(
  COMMAND "${CLANG_FORMAT}" --dry-run --Werror ${files}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clang-format found unformatted files (rc=${rc})")
endif()
